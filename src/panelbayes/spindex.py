"""Two-stage fit of a yearly index-return series.

The yearly return is binarized against a threshold (default 1.4, the level
used in Peak-Over-Threshold studies of this index family), the design is the
linear time trend x1 = year - 1960, and the model reduces to two fixed
effects: the x2 slot is held at zero, so beta2 stays at its prior. Each year
enters as its own individual with a single observation and its own random
effect -- identifiability of sigma is weak under this layout, the diffuse or
carried-over prior keeps the posterior proper. `load_returns` reads the
series as (years, returns) arrays and `series_to_panel` makes it one panel.

The original return series is not redistributable, so the package bundles a
synthetic surrogate with the same shape (one return per year, 1960..2018,
drawn once from Normal(0.5 + 0.025*(year-1960), 1.2^2) with seed 20180614 and
rounded to 4 decimals). Any user-supplied `year,return` CSV can be used
instead.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from importlib import resources

import numpy as np

from .errors import ConfigError
from .model import PanelDataset, read_csv, write_csv
from .priors import default_uninformative, posterior_to_priorset
from .sampler import ESS_FLOOR, ChainConfig, run_chain, summarize, warn_unmixed
from .seeding import derive_seed

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
    years, rets = [], []
    for rowno, row in read_csv(path, ["year", "return"]):
        try:
            years.append(int(row[0]))
        except ValueError:
            raise ConfigError(f"{path}:{rowno}: column 'year' must be an integer") from None
        try:
            rets.append(float(row[1]))
        except ValueError:
            raise ConfigError(f"{path}:{rowno}: column 'return' is not a number") from None
    if np.any(np.diff(years) <= 0):
        raise ConfigError(f"{path}: years must be strictly increasing (no duplicates)")
    return np.array(years, dtype=np.int64), np.array(rets, dtype=np.float64)


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
                  threshold: float = DEFAULT_THRESHOLD) -> list[dict]:
    """Fit years <= split with diffuse priors, carry the posterior forward.

    The later window is fitted twice -- once with diffuse priors, once with
    the carried-over priors -- and both fits are reported in the comparison
    layout (run, parameter, mean, sd, lcl, ucl) for beta0, beta1 and sigma.
    Each of the three fits logs a warning for every one of those parameters
    whose ESS falls below ESS_FLOOR.
    """
    early = years <= split_year
    if not early.any():
        raise ConfigError(f"no data at or before split year {split_year} (empty stage 1)")
    if early.all():
        raise ConfigError(f"no data after split year {split_year} (empty stage 2)")

    full = series_to_panel(years, returns, threshold)
    panels = {"stage 1": full.subset(ids=years[early]),
              "stage 2": full.subset(ids=years[~early])}
    for name, panel in panels.items():
        if panel.y.min() == panel.y.max():
            log.warning("%s responses are all %d after thresholding at %s; "
                        "the prior keeps the posterior proper", name, panel.y[0], threshold)

    def seeded(k: int) -> ChainConfig:
        return replace(chain_config, seed=derive_seed(chain_config.seed, k))

    stage1 = run_chain(panels["stage 1"], default_uninformative(), seeded(1))
    fits = {
        "stage 1": stage1,
        "uninformative": run_chain(panels["stage 2"], default_uninformative(), seeded(2)),
        "informative": run_chain(panels["stage 2"], posterior_to_priorset(stage1), seeded(3)),
    }

    rows = []
    for run, samples in fits.items():
        stats = summarize(samples)
        stats = {param: stats[param] for param in TABLE_PARAMETERS}
        warn_unmixed(f"{run} fit", stats, samples.n_kept, ESS_FLOOR)
        if run != "stage 1":
            rows.extend({"run": run, "parameter": param, "mean": s.mean,
                         "sd": s.sd, "lcl": s.lower, "ucl": s.upper}
                        for param, s in stats.items())
    return rows


def write_comparison_csv(rows: list[dict], path: str | None) -> None:
    """Write the comparison rows of `two_stage_fit`; a None path writes to stdout."""
    cols = ("mean", "sd", "lcl", "ucl")
    write_csv(path, ["run", "parameter", *cols],
              ([row["run"], row["parameter"]] + [float(row[k]) for k in cols] for row in rows))
