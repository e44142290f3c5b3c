"""Two-stage fit of a yearly index-return series.

The yearly return is binarized against a threshold (default 1.4, the level
used in Peak-Over-Threshold studies of this index family), the design is the
linear time trend x1 = year - 1960, and the model reduces to two fixed
effects: the x2 slot is held at zero, so beta2 stays at its prior. Each year
enters as its own individual with a single observation and its own random
effect, so eps_i is confounded with the Bernoulli noise and sigma is not
identified: as sigma2 grows, each year's marginal likelihood tends to 1/2.
Under the diffuse IG(0.001, 0.001) prior the posterior keeps that prior's
tail and the posterior mean of sigma does not exist, so the `sigma` rows of
the comparison CSV report where the chain sits in the prior's tail, not an
estimate (means from 12 to 12 590 across chain seeds; ROADMAP.md item 2).
`load_returns` reads the series as (years, returns) arrays and
`series_to_panel` makes a panel of any of its windows.

`two_stage_fit` runs three chains: stage 1, then the later window under
diffuse and under carried-over priors. Only the last needs stage 1, so a
pool's worker (see `workers`) runs the diffuse-prior chain and then, sent
the carried-over chain after its burn-in, that chain's second sampling
segment (see `sampler.run_chain`), while this process runs stage 1 and the
rest of the carried-over chain.
Every chain and segment keeps its own seed, so the pool never changes the
output.

The original return series is not redistributable, so the package bundles a
synthetic surrogate with the same shape (one return per year, 1960..2018,
drawn once from Normal(0.5 + 0.025*(year-1960), 1.2^2) with seed 20180614 and
rounded to 4 decimals). Any user-supplied `year,return` CSV can be used
instead.
"""

from __future__ import annotations

import logging
from importlib import resources

import numpy as np

from .errors import ConfigError
from .kvconfig import finite, int64
from .model import PanelDataset, read_csv, write_csv
from .priors import default_uninformative, posterior_to_priorset
from .sampler import ChainConfig, SummaryStats, run_chain, summarize, warn_unmixed
from .workers import InParent

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 1.4
DEFAULT_SPLIT_YEAR = 2004
TREND_ORIGIN = 1960
TABLE_PARAMETERS = ("beta0", "beta1", "sigma")


def series_to_panel(years, returns, threshold: float = DEFAULT_THRESHOLD) -> PanelDataset:
    """One individual per year with a single observation: y = 1 where the
    return strictly exceeds the threshold, x1 = year - TREND_ORIGIN, x2 = 0."""
    years = np.asarray(years, dtype=np.int64)
    n = years.size
    return PanelDataset(
        individual=years,
        time=np.ones(n, dtype=np.int64),
        y=(np.asarray(returns, dtype=np.float64) > threshold).astype(np.int64),
        x1=years.astype(np.float64) - TREND_ORIGIN,
        x2=np.zeros(n),
    )


def load_returns(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The `year,return` CSV as (years, returns); years must strictly increase."""
    years, returns = read_csv(path, [("year", int64), ("return", finite)])
    if np.any(np.diff(years) <= 0):
        raise ConfigError(f"{path}: years must be strictly increasing (no duplicates)")
    return np.array(years, dtype=np.int64), np.array(returns, dtype=np.float64)


def surrogate_path() -> str:
    """Filesystem path of the bundled synthetic return series."""
    return str(resources.files("panelbayes").joinpath("data/sp_surrogate.csv"))


def make_surrogate(seed: int = 20180614) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate the bundled surrogate series (documented recipe) as (years, returns)."""
    rng = np.random.default_rng(seed)
    years = np.arange(1960, 2019)
    rets = rng.normal(0.5 + 0.025 * (years - 1960), 1.2)
    return years, np.round(rets, 4)


def two_stage_fit(years, returns, chain_config: ChainConfig,
                  split_year: int = DEFAULT_SPLIT_YEAR,
                  threshold: float = DEFAULT_THRESHOLD,
                  pool=InParent()) -> dict[str, dict[str, SummaryStats]]:
    """Fit years <= split with diffuse priors, carry the posterior forward.

    Each window is the `series_to_panel` of its years. The later window is
    fitted twice -- once with diffuse priors, once with the carried-over
    priors. Returns {"uninformative": stats, "informative": stats}, each
    the `summarize` of that fit restricted to TABLE_PARAMETERS.
    Each of the three fits logs a warning for every one of those parameters
    whose ESS falls below the floor of `warn_unmixed`, in the order stage 1,
    uninformative, informative.

    Only the informative fit needs stage 1. Given a one-worker pool (see
    `workers.worker_pool`), the worker runs the uninformative fit and then,
    on the burned-in chain this process sends it, the informative fit's
    second sampling segment, while this process runs stage 1 and the rest
    of the informative fit. Stage 1 gets no pool: its segment would wait
    behind the uninformative fit. With the default in-process pool all three
    run here. Each fit and segment has its own seed, so the pool never
    changes the result, and when more than one fit fails the error raised is
    that of the first in the order above.
    """
    early = years <= split_year
    if not early.any():
        raise ConfigError(f"no data at or before split year {split_year} (empty stage 1)")
    if early.all():
        raise ConfigError(f"no data after split year {split_year} (empty stage 2)")

    panels = {"stage 1": series_to_panel(years[early], returns[early], threshold),
              "stage 2": series_to_panel(years[~early], returns[~early], threshold)}
    for name, panel in panels.items():
        if panel.y.min() == panel.y.max():
            log.warning("%s responses are all %d after thresholding at %s; "
                        "the prior keeps the posterior proper", name, panel.y[0], threshold)

    uninformative = pool.submit(run_chain, panels["stage 2"], default_uninformative(),
                                chain_config.derive(2))
    stage1 = run_chain(panels["stage 1"], default_uninformative(), chain_config.derive(1))
    try:
        informative = run_chain(panels["stage 2"], posterior_to_priorset(stage1),
                                chain_config.derive(3), pool)
    except Exception:
        uninformative.result()  # a failure of the earlier fit comes first
        raise
    fits = {"stage 1": stage1, "uninformative": uninformative.result(),
            "informative": informative}

    report = {}
    for run, samples in fits.items():
        stats = summarize(samples)
        stats = {param: stats[param] for param in TABLE_PARAMETERS}
        warn_unmixed(f"{run} fit", stats, samples.n_kept)
        if run != "stage 1":
            report[run] = stats
    return report


def write_comparison_csv(report: dict[str, dict[str, SummaryStats]], path: str | None) -> None:
    """Write the report of `two_stage_fit` as (run, parameter, mean, sd, lcl,
    ucl) rows; a None path writes to stdout."""
    write_csv(path, ["run", "parameter", "mean", "sd", "lcl", "ucl"],
              ([run, param, s.mean, s.sd, s.lower, s.upper]
               for run, stats in report.items() for param, s in stats.items()))
