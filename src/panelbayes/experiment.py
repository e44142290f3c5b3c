"""Replicated two-stage fitting study over the quadrant designs R1..R6.

Each run fits a first data block with diffuse priors, converts the posterior
into an informative prior set, and fits a second block with it -- or, for the
comparison runs R4..R6, fits the second block directly with diffuse priors:

    R1: top half (early+late times, individuals 1..I/2)   -> bottom half
    R2: early times (all individuals)                     -> late times
    R3: m11                                               -> m22
    R4: (none)                                            -> m22
    R5: (none)                                            -> bottom half
    R6: (none)                                            -> late times

Per replicate the stage-2 posterior means of beta0, beta1, beta2 and sigma
(mean of per-draw sqrt(sigma2)) are collected; across replicates each
parameter gets Mean, SD, a t-based confidence interval and
MSE = (Mean - truth)^2 + Var. Each stage-2 fit whose ESS falls below the
floor of `sampler.warn_unmixed` logs a warning naming its replicate and run.
Replicate k's panel follows the simulation seed and its chains the chain
config's seed (see `seeding`); replicates run through the pool `run_study`
is given (see `workers`), so results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datagen import Quadrants, SimConfig, partition, replicate_panel
from .errors import ConfigError
from .model import PanelDataset, concat_panels, write_csv
from .priors import default_uninformative, posterior_to_priorset
from .sampler import PARAMETERS, ChainConfig, SummaryStats, run_chain, summarize, warn_unmixed
from .workers import InParent


# run id -> (stage1, stage2) dataset selectors; stage1 is the prior-building
# fit, None for single-stage runs
RUNS: dict[str, tuple[str | None, str]] = {
    "R1": ("top", "bottom"),
    "R2": ("early", "late"),
    "R3": ("m11", "m22"),
    "R4": (None, "m22"),
    "R5": (None, "bottom"),
    "R6": (None, "late"),
}

# the files `write_tables` writes, in this order
TABLE_FILES = (*(f"table_{param}.csv" for param in PARAMETERS), "estimates.csv")

_SELECTORS = {"m11": ("m11",), "m22": ("m22",), "top": ("m11", "m12"),
              "bottom": ("m21", "m22"), "early": ("m11", "m21"), "late": ("m12", "m22")}


def stage_dataset(selector: str, q: Quadrants) -> PanelDataset:
    """Materialize a selector: a quadrant or a two-quadrant combination."""
    if selector not in _SELECTORS:
        raise ValueError(f"unknown dataset selector {selector!r}")
    return concat_panels(*(getattr(q, name) for name in _SELECTORS[selector]))


@dataclass(frozen=True)
class SummaryRow:
    run_id: str
    parameter: str
    mean: float
    sd: float
    lcl: float
    ucl: float
    mse: float


def mse(estimates: Sequence[float], truth: float) -> float:
    """Squared bias plus variance of the replicate estimates (ddof=1)."""
    e = np.asarray(estimates, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least 2 estimates")
    return float((e.mean() - truth) ** 2 + e.var(ddof=1))


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 1: the finite sums in
    cos^2(theta), theta = atan(t / sqrt(df)), of Abramowitz & Stegun 26.7.3
    (odd df) and 26.7.4 (even df)."""
    odd = df % 2
    c2 = df / (df + t * t)
    term = total = 1.0 if df > 1 else 0.0  # df = 1 has no sum
    for k in range(1, df // 2):
        term *= (2 * k - 1 + odd) / (2 * k + odd) * c2
        total += term
    if odd:
        sin_cos = t * math.sqrt(df) / (df + t * t)
        return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + sin_cos * total)
    return t / math.sqrt(df + t * t) * total


def _t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df >= 1.

    Newton's method on P(|T| <= t) = 0.95, with the density from lgamma.
    That probability is concave in t > 0, so from the normal quantile, which
    lies below every t quantile, each step lands below the root and t rises
    until the step is negligible.
    """
    half = 0.5 * (df + 1)
    log_norm = math.lgamma(half) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    t = 1.959963984540054
    while True:
        density = math.exp(log_norm - half * math.log1p(t * t / df))
        step = (0.95 - _t_central(t, df)) / (2.0 * density)
        t += step
        if step <= 1e-14 * t:
            return t


def replicate_ci(estimates: Sequence[float]) -> tuple[float, float]:
    """t-based interval across replicates: mean +/- t(0.975, N-1) * SD/sqrt(N)."""
    e = np.asarray(estimates, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least 2 estimates")
    half = float(_t_quantile_975(e.size - 1) * e.std(ddof=1) / np.sqrt(e.size))
    m = float(e.mean())
    return m - half, m + half


def execute_run(run_id: str, quadrants: Quadrants,
                chain_config: ChainConfig) -> dict[str, SummaryStats]:
    """Run one design on one replicate's quadrants; the `summarize` of stage 2.

    Stage 1 (when the design has one) fits with diffuse priors and is
    summarized into the stage-2 prior set; individual effects start fresh at
    stage 2. Stage t runs on `chain_config.derive(run index, t)`.
    """
    stage1, stage2 = RUNS[run_id]
    run_index = list(RUNS).index(run_id)
    priors = default_uninformative()
    if stage1 is not None:
        samples = run_chain(stage_dataset(stage1, quadrants), priors,
                            chain_config.derive(run_index, 1))
        priors = posterior_to_priorset(samples)
    return summarize(run_chain(stage_dataset(stage2, quadrants), priors,
                               chain_config.derive(run_index, 2)))


def _replicate_worker(args) -> list[float]:
    """One replicate's stage-2 posterior means, run by run and in PARAMETERS
    order within a run; warns for unmixed fits."""
    sim_config, run_ids, chain_config, rep = args
    try:
        quadrants = partition(replicate_panel(sim_config, rep)[0])
        cfg = chain_config.derive(rep, 1)
        means = []
        for rid in run_ids:
            stats = execute_run(rid, quadrants, cfg)
            warn_unmixed(f"replicate {rep} {rid}", stats, cfg.samples)
            means += [stats[param].mean for param in PARAMETERS]
        return means
    except Exception as exc:
        raise RuntimeError(f"replicate {rep} failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class StudyResult:
    rows: list[SummaryRow]
    estimates: list[tuple[int, str, str, float]]  # (replicate, run, parameter, value)
    sim_config: SimConfig


def run_study(sim_config: SimConfig, run_ids: Sequence[str], chain_config: ChainConfig,
              pool=InParent()) -> StudyResult:
    """Generate, partition and fit every replicate, then aggregate.

    Replicate k fits `replicate_panel(sim_config, k)` on the chain config
    `chain_config.derive(k, 1)`, in `pool` (`workers.worker_pool`; by default
    in turn, here). No run ids, an unknown or repeated run id and fewer than
    2 replicates raise ConfigError before any replicate is made. A failed
    replicate aborts the study; dropping it would bias the MSE column.
    """
    run_ids = tuple(run_ids)
    if not run_ids:
        raise ConfigError(f"no run ids given (known: {', '.join(RUNS)})")
    for rid in run_ids:
        if rid not in RUNS:
            raise ConfigError(f"unknown run id {rid!r} (known: {', '.join(RUNS)})")
        if run_ids.count(rid) > 1:
            raise ConfigError(f"run id {rid!r} is listed more than once")
    if sim_config.replicates < 2:
        raise ConfigError(f"replicates must be >= 2 for the across-replicate table, "
                          f"got {sim_config.replicates}")
    tasks = [(sim_config, run_ids, chain_config, rep) for rep in range(sim_config.replicates)]
    results = list(pool.map(_replicate_worker, tasks))

    # results[rep][j] is replicate rep's estimate of cells[j]
    cells = [(rid, param) for rid in run_ids for param in PARAMETERS]
    estimates = [(rep, rid, param, value) for rep, means in enumerate(results)
                 for (rid, param), value in zip(cells, means)]
    truth = dict(zip(PARAMETERS, (*sim_config.beta_true, sim_config.sigma)))
    rows = []
    for (rid, param), vals in zip(cells, np.array(results).T):
        lcl, ucl = replicate_ci(vals)
        rows.append(SummaryRow(run_id=rid, parameter=param,
                               mean=float(vals.mean()), sd=float(vals.std(ddof=1)),
                               lcl=lcl, ucl=ucl, mse=mse(vals, truth[param])))
    return StudyResult(rows=rows, estimates=estimates, sim_config=sim_config)


def write_tables(result: StudyResult, outdir: str) -> list[str]:
    """One CSV per parameter (rows in the study's run order) plus the raw
    estimates, at the TABLE_FILES paths in `outdir`, which it returns."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in TABLE_FILES]
    n_ind = result.sim_config.individuals
    for param, path in zip(PARAMETERS, paths):
        rows = (r for r in result.rows if r.parameter == param)
        write_csv(path, ["run", "N", "mean", "sd", "lcl", "ucl", "mse"],
                  ([r.run_id, n_ind, r.mean, r.sd, r.lcl, r.ucl, r.mse] for r in rows))
    write_csv(paths[-1], ["replicate", "run", "parameter", "estimate"], result.estimates)
    return paths
