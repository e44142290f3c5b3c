"""Two-stage fit of a yearly index-return series.

The yearly return is binarized against a threshold (default 1.4, the level
used in Peak-Over-Threshold studies of this index family), the design is a
linear time trend x = year - baseline, and the model reduces to two fixed
effects: the x2 slot is held at zero, so beta2 stays at its prior. Each year
enters as its own individual with a single observation and its own random
effect -- identifiability of sigma is weak under this layout, the diffuse or
carried-over prior keeps the posterior proper.

The original return series is not redistributable, so the package bundles a
synthetic surrogate with the same shape (one return per year, 1960..2018,
drawn once from Normal(0.5 + 0.025*(year-1960), 1.2^2) with seed 20180614 and
rounded to 4 decimals). Any user-supplied `year,return` CSV can be used
instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import ConfigError
from .model import PanelDataset, read_csv, write_csv
from .priors import default_uninformative, posterior_to_priorset
from .sampler import ChainConfig, run_chain, summarize
from .seeding import derive_seed

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 1.4
DEFAULT_SPLIT_YEAR = 2004
DEFAULT_BASELINE = 1960
TABLE_PARAMETERS = ("beta0", "beta1", "sigma")


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    years: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        years = np.asarray(self.years, dtype=np.int64)
        rets = np.asarray(self.returns, dtype=np.float64)
        if years.size != rets.size:
            raise ValueError("years and returns must have equal length")
        if years.size and np.any(np.diff(years) <= 0):
            raise ValueError("years must be strictly increasing (no duplicates)")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "returns", rets)


def binarize(series: ReturnSeries, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """1 where the return strictly exceeds the threshold, else 0."""
    return (series.returns > threshold).astype(np.int64)


def build_design(years, baseline: int = DEFAULT_BASELINE) -> np.ndarray:
    """Time-trend covariate: year minus the baseline year."""
    return np.asarray(years, dtype=np.float64) - float(baseline)


def series_to_panel(series: ReturnSeries, threshold: float = DEFAULT_THRESHOLD,
                    baseline: int = DEFAULT_BASELINE) -> PanelDataset:
    """One individual per year, a single observation each, x2 held at zero."""
    n = series.years.size
    return PanelDataset(
        individual=series.years,
        time=np.ones(n, dtype=np.int64),
        y=binarize(series, threshold),
        x1=build_design(series.years, baseline),
        x2=np.zeros(n),
    )


def load_returns(path: str) -> ReturnSeries:
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
    try:
        return ReturnSeries(np.array(years, dtype=np.int64), np.array(rets))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def surrogate_path() -> str:
    """Filesystem path of the bundled synthetic return series."""
    return str(resources.files("panelbayes").joinpath("data/sp_surrogate.csv"))


def make_surrogate(seed: int = 20180614) -> ReturnSeries:
    """Regenerate the bundled surrogate series (documented recipe)."""
    rng = np.random.default_rng(seed)
    years = np.arange(1960, 2019)
    rets = rng.normal(0.5 + 0.025 * (years - 1960), 1.2)
    return ReturnSeries(years, np.round(rets, 4))


def two_stage_fit(series: ReturnSeries, chain_config: ChainConfig,
                  split_year: int = DEFAULT_SPLIT_YEAR,
                  threshold: float = DEFAULT_THRESHOLD,
                  baseline: int = DEFAULT_BASELINE) -> list[dict]:
    """Fit years <= split with diffuse priors, carry the posterior forward.

    The later window is fitted twice -- once with diffuse priors, once with
    the carried-over priors -- and both fits are reported in the comparison
    layout (run, parameter, mean, sd, lcl, ucl) for beta0, beta1 and sigma.
    """
    early_mask = series.years <= split_year
    late_mask = ~early_mask
    if not early_mask.any():
        raise ConfigError(f"no data at or before split year {split_year} (empty stage 1)")
    if not late_mask.any():
        raise ConfigError(f"no data after split year {split_year} (empty stage 2)")

    early = ReturnSeries(series.years[early_mask], series.returns[early_mask])
    late = ReturnSeries(series.years[late_mask], series.returns[late_mask])
    panels = {"stage 1": series_to_panel(early, threshold, baseline),
              "stage 2": series_to_panel(late, threshold, baseline)}
    for name, panel in panels.items():
        if panel.y.min() == panel.y.max():
            log.warning("%s responses are all %d after thresholding at %s; "
                        "the prior keeps the posterior proper", name, panel.y[0], threshold)

    def seeded(k: int) -> ChainConfig:
        return replace(chain_config, seed=derive_seed(chain_config.seed, k))

    stage1 = run_chain(panels["stage 1"], default_uninformative(), seeded(1))
    informative_priors = posterior_to_priorset(stage1)
    fits = {
        "uninformative": run_chain(panels["stage 2"], default_uninformative(), seeded(2)),
        "informative": run_chain(panels["stage 2"], informative_priors, seeded(3)),
    }

    rows = []
    for run, samples in fits.items():
        stats = summarize(samples)
        for param in TABLE_PARAMETERS:
            s = stats[param]
            rows.append({"run": run, "parameter": param, "mean": s.mean,
                         "sd": s.sd, "lcl": s.lower, "ucl": s.upper})
    return rows


def write_comparison_csv(rows: list[dict], path: str | None) -> None:
    """Write the comparison rows of `two_stage_fit`; a None path writes to stdout."""
    cols = ("mean", "sd", "lcl", "ucl")
    write_csv(path, ["run", "parameter", *cols],
              ([row["run"], row["parameter"]] + [float(row[k]) for k in cols] for row in rows))
