"""Synthetic panel generation and the four-quadrant partition.

A simulated panel has I individuals over T periods. Per individual:
eps_i ~ N(0, sigma^2) once; x1 ~ Bernoulli(0.5) once and held constant over
time; x2 follows the trending autoregression

    x2[1] ~ U(-0.5, 0.5),   x2[j] = 0.1*j + 0.5*x2[j-1] + U(-0.5, 0.5)

and y_ij ~ Bernoulli(logistic(beta0 + beta1*x1 + beta2*x2 + eps_i)).

`replicate_panel` draws replicate k from its own stream (see `seeding`), so
`gen --replicate k` writes the panel that `study` fits as replicate k.

`partition` halves a rectangular panel by individuals and by time into the
blocks m11 (early times, first half of individuals), m12 (late/first), m21
(early/second), m22 (late/second). Covariate values and the original time
indices are carried verbatim -- late-window x2 keeps its trend level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import PanelDataset, expit
from .seeding import derive_seed

DEFAULT_BETA = (-1.0, 1.0, 1.0)


@dataclass(frozen=True)
class SimConfig:
    individuals: int
    periods: int
    sigma: float
    beta_true: tuple[float, float, float] = DEFAULT_BETA
    replicates: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.individuals < 2 or self.individuals % 2:
            raise ConfigError(f"individuals must be even and >= 2, got {self.individuals}")
        if self.periods < 2 or self.periods % 2:
            raise ConfigError(f"periods must be even and >= 2, got {self.periods}")
        if not self.sigma > 0.0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if len(self.beta_true) != 3:
            raise ConfigError("beta_true needs 3 components")
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))


@dataclass(frozen=True, eq=False)
class Quadrants:
    m11: PanelDataset
    m12: PanelDataset
    m21: PanelDataset
    m22: PanelDataset


def gen_panel(config: SimConfig, rng: np.random.Generator) -> tuple[PanelDataset, np.ndarray]:
    """Generate one replicate; returns the panel and the true eps draws.

    The true individual effects are recorded for oracle checks only -- the
    fitting path never sees them.
    """
    n_ind, periods = config.individuals, config.periods
    eps = rng.normal(0.0, config.sigma, size=n_ind)
    x1_ind = (rng.random(n_ind) < 0.5).astype(np.float64)

    x2 = np.empty((n_ind, periods))
    x2[:, 0] = rng.uniform(-0.5, 0.5, size=n_ind)
    for j in range(2, periods + 1):
        x2[:, j - 1] = 0.1 * j + 0.5 * x2[:, j - 2] + rng.uniform(-0.5, 0.5, size=n_ind)

    b0, b1, b2 = config.beta_true
    mu = b0 + b1 * x1_ind[:, None] + b2 * x2 + eps[:, None]
    y = (rng.random((n_ind, periods)) < expit(mu)).astype(np.int64)

    ind = np.repeat(np.arange(1, n_ind + 1), periods)
    tim = np.tile(np.arange(1, periods + 1), n_ind)
    panel = PanelDataset(ind, tim, y.ravel(), np.repeat(x1_ind, periods), x2.ravel())
    return panel, eps


def replicate_panel(config: SimConfig, replicate: int) -> tuple[PanelDataset, np.ndarray]:
    """`gen_panel` of replicate `replicate`, on the stream derive_seed(seed, replicate, 0)."""
    return gen_panel(config, np.random.default_rng(derive_seed(config.seed, replicate, 0)))


def partition(data: PanelDataset) -> Quadrants:
    """Split a rectangular, even-sized panel into its four quadrants."""
    if not data.is_rectangular():
        raise ValueError("partition requires a rectangular panel")
    ids = data.ids
    times = data.times()
    if ids.size % 2:
        raise ValueError(f"partition needs an even individual count, got {ids.size}")
    if times.size % 2:
        raise ValueError(f"partition needs an even period count, got {times.size}")
    first_ids, second_ids = np.split(ids, 2)
    early, late = np.split(times, 2)
    return Quadrants(
        m11=data.subset(ids=first_ids, times=early),
        m12=data.subset(ids=first_ids, times=late),
        m21=data.subset(ids=second_ids, times=early),
        m22=data.subset(ids=second_ids, times=late),
    )
