"""Prior distributions and posterior-to-prior conversion.

The defaults are the diffuse choices used throughout the simulation study:
Normal(0, 10000) on each fixed effect and inverse-gamma(0.001, 0.001) on the
random-effect variance. Informative priors for a later data window are built
by moment-matching the posterior draws of an earlier fit: independent normals
for the fixed effects and a method-of-moments inverse gamma for sigma2.

A PriorSet round-trips through the plain-text grammar of `kvconfig` (keys
``beta{0,1,2}.mean``, ``beta{0,1,2}.variance``, ``sigma2.shape``,
``sigma2.scale``) so one CLI invocation can hand its posterior to the next.
A priors file holding any other key is rejected, as a config file is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .kvconfig import KVFile, write_kv_file

VARIANCE_FLOOR = 1e-8


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class InverseGammaPrior:
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("shape and scale must be positive")


@dataclass(frozen=True)
class PriorSet:
    """One normal prior per fixed effect plus an inverse gamma on sigma2."""

    beta_priors: tuple[NormalPrior, NormalPrior, NormalPrior]
    sigma2_prior: InverseGammaPrior

    def __post_init__(self):
        if len(self.beta_priors) != 3:
            raise ValueError("need exactly 3 fixed-effect priors")
        object.__setattr__(self, "beta_priors", tuple(self.beta_priors))


def default_uninformative() -> PriorSet:
    """Normal(0, 10000) on beta0..beta2 and IG(0.001, 0.001) on sigma2."""
    return PriorSet(
        beta_priors=tuple(NormalPrior(0.0, 10000.0) for _ in range(3)),
        sigma2_prior=InverseGammaPrior(0.001, 0.001),
    )


def fit_normal(samples: Sequence[float]) -> NormalPrior:
    """Moment-match a normal: sample mean and unbiased variance (floored)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit a normal")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    if var == 0.0:
        raise ValueError("degenerate sample: all values identical")
    return NormalPrior(mean, max(var, VARIANCE_FLOOR))


def fit_invgamma(samples: Sequence[float]) -> InverseGammaPrior:
    """Method-of-moments inverse gamma from positive draws.

    With sample mean m and unbiased variance v, shape a = m^2/v + 2 and
    scale b = m*(a - 1); a > 2 by construction, so the fitted prior has a
    finite mean and variance.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit an inverse gamma")
    if not (x > 0.0).all():
        raise ValueError("inverse gamma samples must be positive")
    m = float(x.mean())
    v = float(x.var(ddof=1))
    if v == 0.0:
        raise ValueError("degenerate sample: zero variance")
    shape = m * m / v + 2.0
    scale = m * (shape - 1.0)
    return InverseGammaPrior(shape, scale)


def posterior_to_priorset(samples) -> PriorSet:
    """Summarize posterior draws as an independent PriorSet.

    Fixed-effect chains become independent normal priors; the sigma2 chain
    becomes an inverse gamma. Individual-effect draws are never transferred.
    A chain that cannot be moment-matched raises a ValueError that names it.
    """
    beta = np.asarray(samples.beta, dtype=np.float64)
    sigma2 = np.asarray(samples.sigma2, dtype=np.float64)
    if beta.ndim != 2 or beta.shape[1] != 3:
        raise ValueError("samples must carry chains for beta0, beta1, beta2")
    if sigma2.size == 0:
        raise ValueError("samples must carry a sigma2 chain")
    chains = [(f"beta{k}", fit_normal, beta[:, k]) for k in range(3)]
    fitted = []
    for name, fit, draws in chains + [("sigma2", fit_invgamma, sigma2)]:
        try:
            fitted.append(fit(draws))
        except ValueError as exc:
            raise ValueError(f"cannot carry {name} forward: {exc}") from None
    return PriorSet(beta_priors=tuple(fitted[:3]), sigma2_prior=fitted[3])


def log_density_normal(p: NormalPrior, x: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * p.variance) - (x - p.mean) ** 2 / (2.0 * p.variance)


def log_density_invgamma(p: InverseGammaPrior, x: float) -> float:
    if x <= 0.0:
        raise ValueError("inverse gamma density requires x > 0")
    try:
        log_gamma = math.lgamma(p.shape)
    except OverflowError:  # shape above about 2.6e305: the density is not finite
        log_gamma = math.inf
    return float(p.shape * math.log(p.scale) - log_gamma
                 - (p.shape + 1.0) * math.log(x) - p.scale / x)


def save_priors(priors: PriorSet, path: str) -> None:
    entries: dict[str, object] = {}
    for k, p in enumerate(priors.beta_priors):
        entries[f"beta{k}.mean"] = float(p.mean)
        entries[f"beta{k}.variance"] = float(p.variance)
    entries["sigma2.shape"] = float(priors.sigma2_prior.shape)
    entries["sigma2.scale"] = float(priors.sigma2_prior.scale)
    write_kv_file(path, entries, header="panelbayes prior set")


def load_priors(path: str) -> PriorSet:
    """Read a priors file; a missing, malformed or unknown key is a ConfigError."""
    kv = KVFile(path)
    try:
        betas = tuple(NormalPrior(kv.get(f"beta{k}.mean"), kv.get(f"beta{k}.variance"))
                      for k in range(3))
        sig = InverseGammaPrior(kv.get("sigma2.shape"), kv.get("sigma2.scale"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    kv.check_all_read()
    return PriorSet(beta_priors=betas, sigma2_prior=sig)
