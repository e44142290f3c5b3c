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
MSE = (Mean - truth)^2 + Var. Replicates run on independent RNG streams
(see `seeding`) so results are identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .datagen import Quadrants, SimConfig, gen_panel, partition
from .errors import ConfigError
from .model import PanelDataset, concat_panels, write_csv
from .priors import default_uninformative, posterior_to_priorset
from .sampler import ChainConfig, run_chain
from .seeding import derive_seed

PARAMETERS = ("beta0", "beta1", "beta2", "sigma")


@dataclass(frozen=True)
class RunSpec:
    run_id: str
    stage1: str | None  # dataset selector for the prior-building fit, None for single-stage runs
    stage2: str


RUNS: dict[str, RunSpec] = {
    "R1": RunSpec("R1", "top", "bottom"),
    "R2": RunSpec("R2", "early", "late"),
    "R3": RunSpec("R3", "m11", "m22"),
    "R4": RunSpec("R4", None, "m22"),
    "R5": RunSpec("R5", None, "bottom"),
    "R6": RunSpec("R6", None, "late"),
}


def stage_dataset(selector: str, q: Quadrants) -> PanelDataset:
    """Materialize a selector: a quadrant or a two-quadrant combination."""
    if selector == "m11":
        return q.m11
    if selector == "m22":
        return q.m22
    if selector == "top":
        return concat_panels(q.m11, q.m12)
    if selector == "bottom":
        return concat_panels(q.m21, q.m22)
    if selector == "early":
        return concat_panels(q.m11, q.m21)
    if selector == "late":
        return concat_panels(q.m12, q.m22)
    raise ValueError(f"unknown dataset selector {selector!r}")


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


def replicate_ci(estimates: Sequence[float]) -> tuple[float, float]:
    """t-based interval across replicates: mean +/- t(0.975, N-1) * SD/sqrt(N)."""
    e = np.asarray(estimates, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least 2 estimates")
    half = float(sps.t.ppf(0.975, e.size - 1) * e.std(ddof=1) / np.sqrt(e.size))
    m = float(e.mean())
    return m - half, m + half


def execute_run(run_id: str, quadrants: Quadrants, chain_config: ChainConfig) -> dict[str, float]:
    """Run one design on one replicate's quadrants; stage-2 posterior means.

    Stage 1 (when the design has one) fits with diffuse priors and is
    summarized into the stage-2 prior set; individual effects start fresh at
    stage 2. The two stages use seeds derived from the chain seed, the run
    index and the stage number.
    """
    spec = RUNS[run_id]
    run_index = list(RUNS).index(run_id)
    priors = default_uninformative()
    if spec.stage1 is not None:
        cfg1 = replace(chain_config, seed=derive_seed(chain_config.seed, run_index, 1))
        stage1 = run_chain(stage_dataset(spec.stage1, quadrants), priors, cfg1)
        priors = posterior_to_priorset(stage1)
    cfg2 = replace(chain_config, seed=derive_seed(chain_config.seed, run_index, 2))
    stage2 = run_chain(stage_dataset(spec.stage2, quadrants), priors, cfg2)
    return {
        "beta0": float(stage2.beta[:, 0].mean()),
        "beta1": float(stage2.beta[:, 1].mean()),
        "beta2": float(stage2.beta[:, 2].mean()),
        "sigma": float(stage2.sigma.mean()),
    }


def _replicate_worker(args) -> tuple[int, dict[str, dict[str, float]]]:
    sim_config, run_ids, chain_config, rep = args
    try:
        rng = np.random.default_rng(derive_seed(sim_config.seed, rep, 0))
        panel, _ = gen_panel(sim_config, rng)
        quadrants = partition(panel)
        cfg = replace(chain_config, seed=derive_seed(sim_config.seed, rep, 1))
        return rep, {rid: execute_run(rid, quadrants, cfg) for rid in run_ids}
    except Exception as exc:
        raise RuntimeError(f"replicate {rep} failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class StudyResult:
    rows: list[SummaryRow]
    estimates: list[tuple[int, str, str, float]]  # (replicate, run, parameter, value)
    run_ids: tuple[str, ...]
    sim_config: SimConfig


def run_study(sim_config: SimConfig, run_ids: Sequence[str], chain_config: ChainConfig,
              jobs: int = 1) -> StudyResult:
    """Generate, partition and fit every replicate, then aggregate.

    A failure in any replicate aborts the study (silently dropped replicates
    would bias the MSE column).
    """
    run_ids = tuple(run_ids)
    for rid in run_ids:
        if rid not in RUNS:
            raise ValueError(f"unknown run id {rid!r}")
    if sim_config.replicates < 2:
        raise ConfigError(f"replicates must be >= 2 for the across-replicate table, "
                          f"got {sim_config.replicates}")
    tasks = [(sim_config, run_ids, chain_config, rep) for rep in range(sim_config.replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_replicate_worker, tasks))
    else:
        results = dict(map(_replicate_worker, tasks))

    estimates = []
    for rep in range(sim_config.replicates):
        for rid in run_ids:
            for param in PARAMETERS:
                estimates.append((rep, rid, param, results[rep][rid][param]))

    truth = {"beta0": sim_config.beta_true[0], "beta1": sim_config.beta_true[1],
             "beta2": sim_config.beta_true[2], "sigma": sim_config.sigma}
    rows = []
    for rid in run_ids:
        for param in PARAMETERS:
            vals = np.array([results[rep][rid][param] for rep in range(sim_config.replicates)])
            lcl, ucl = replicate_ci(vals)
            rows.append(SummaryRow(run_id=rid, parameter=param,
                                   mean=float(vals.mean()), sd=float(vals.std(ddof=1)),
                                   lcl=lcl, ucl=ucl, mse=mse(vals, truth[param])))
    return StudyResult(rows=rows, estimates=estimates, run_ids=run_ids, sim_config=sim_config)


def write_tables(result: StudyResult, outdir: str) -> list[str]:
    """One CSV per parameter (rows ordered by run) plus the raw estimates."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    n_ind = result.sim_config.individuals
    for param in PARAMETERS:
        path = os.path.join(outdir, f"table_{param}.csv")
        by_run = {r.run_id: r for r in result.rows if r.parameter == param}
        rows = (by_run[rid] for rid in result.run_ids)
        write_csv(path, ["run", "N", "mean", "sd", "lcl", "ucl", "mse"],
                  ([r.run_id, n_ind, r.mean, r.sd, r.lcl, r.ucl, r.mse] for r in rows))
        written.append(path)
    est_path = os.path.join(outdir, "estimates.csv")
    write_csv(est_path, ["replicate", "run", "parameter", "estimate"], result.estimates)
    written.append(est_path)
    return written
