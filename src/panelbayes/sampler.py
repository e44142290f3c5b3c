"""Adaptive blocked random-walk Metropolis sampler with a conjugate variance step.

One sweep updates, in order:

  (a) the fixed-effect vector beta as a single 3-dimensional block, via a
      Gaussian random-walk proposal L*z accepted on the log-posterior
      difference;
  (b) every individual effect eps_i as its own scalar block, accepted on its
      conditional (that individual's likelihood terms plus the N(0, sigma2)
      term) -- the scalar updates are independent given (beta, sigma2), so
      they are evaluated vectorized;
  (c) sigma2 exactly, from its inverse-gamma full conditional
      IG(shape + I/2, scale + sum(eps^2)/2).

`run_chain` and `metropolis_sweep` share one sweep kernel, built once per
(dataset, priors): it holds the design matrix X, the individual codes, the
prior arrays, and the two data terms of the log-likelihood delta, Xty = X'y
(a 3-vector) and y_count (the number of ones per individual). The chain
carries mu = X beta + eps[codes] and softplus(mu) along with its state, so a
proposal costs one softplus pass over the observations per block, and the
y*dmu terms reduce to Xty @ d and y_count * d.

Proposal scales are tuned only during burn-in: acceptance rates are averaged
over fixed windows of 50 iterations and the log scales nudged toward the
optimal-scaling targets 0.234 (block) and 0.44 (scalar) with a diminishing
step 0.1/sqrt(window). The beta proposal starts as identity*scale and
switches to the Cholesky factor of the empirical covariance of the burn-in
draws (plus diagonal jitter) once 500 burn-in iterations have accumulated.
Scalar proposals are expressed relative to a per-individual
conditional-scale estimate 1/sqrt(1/sigma2 + sum_j p_ij(1-p_ij)), refreshed
each adaptation window, so they stay usable whether sigma2 is diffuse or
pinned near zero. Everything is frozen when burn-in ends, so the kept draws
come from a fixed Markov kernel. A chain is a pure function of (data,
priors, config): identical seeds give bit-identical output.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import SamplerError
from .model import PanelDataset, ParameterState, log_posterior, softplus, write_csv
from .priors import InverseGammaPrior, PriorSet
from .seeding import derive_seed

_ADAPT_WINDOW = 50            # burn-in iterations per adaptation step
_TARGET_ACCEPT_BLOCK = 0.234  # optimal-scaling acceptance targets (Roberts, Gelman
_TARGET_ACCEPT_SCALAR = 0.44  # & Gilks 1997; Roberts & Rosenthal 2001)
_COV_START = 500              # burn-in iterations before the empirical-covariance
                              # proposal; a multiple of _ADAPT_WINDOW
_COV_JITTER = 1e-6
_TINY = np.finfo(np.float64).tiny
ESS_FLOOR = 100               # fewer effective draws than this and a fit is reported as unmixed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainConfig:
    burn_in: int = 2000
    samples: int = 10000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Kept draws plus acceptance bookkeeping for one chain."""

    beta: np.ndarray              # (n_kept, 3)
    sigma2: np.ndarray            # (n_kept,)
    accept_beta: float
    accept_epsilon: np.ndarray    # per-individual acceptance rates

    def __post_init__(self):
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("all sigma2 draws must be positive")
        if self.beta.shape[0] != self.sigma2.shape[0]:
            raise ValueError("chains must have equal length")

    @property
    def n_kept(self) -> int:
        return int(self.sigma2.size)

    @property
    def sigma(self) -> np.ndarray:
        """Per-draw square root of sigma2 (the scale the report tables use)."""
        return np.sqrt(self.sigma2)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    lower: float
    upper: float
    ess: float


def adapt_scale(log_scale: float, observed_accept: float, target: float, step: float) -> float:
    """Robbins-Monro nudge: log_scale + step * (observed_accept - target)."""
    if not 0.0 <= observed_accept <= 1.0:
        raise ValueError("acceptance rate must lie in [0, 1]")
    return log_scale + step * (observed_accept - target)


def gibbs_sigma2(epsilon, prior: InverseGammaPrior, rng: np.random.Generator) -> float:
    """Exact draw from IG(shape + I/2, scale + sum(eps^2)/2)."""
    eps = np.asarray(epsilon, dtype=np.float64)
    shape = prior.shape + 0.5 * eps.size
    scale = prior.scale + 0.5 * float(eps @ eps)
    g = rng.gamma(shape, 1.0 / scale)
    return 1.0 / max(g, _TINY)


def effective_sample_size(chain) -> float:
    """n / (1 + 2 * sum of autocorrelations up to the first non-positive lag)."""
    x = np.asarray(chain, dtype=np.float64)
    n = x.size
    if n < 2:
        return float(n)
    xc = x - x.mean()
    if float(xc @ xc) == 0.0:
        return float(n)
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * f.conjugate(), m)[:n].real
    rho = acov[1:] / acov[0]
    s = 0.0
    for r in rho:
        if r <= 0.0:
            break
        s += r
    return float(min(float(n), max(1.0, n / (1.0 + 2.0 * s))))


def _chain_stats(x: np.ndarray) -> SummaryStats:
    if x.size < 2:
        raise ValueError("need at least 2 kept draws to summarize")
    lo, hi = np.quantile(x, [0.025, 0.975])
    return SummaryStats(mean=float(x.mean()), sd=float(x.std(ddof=1)),
                        lower=float(lo), upper=float(hi),
                        ess=effective_sample_size(x))


def summarize(samples: PosteriorSamples) -> dict[str, SummaryStats]:
    """Mean / SD / equal-tailed 95% interval / ESS for beta0..beta2 and sigma."""
    out = {}
    for k in range(3):
        out[f"beta{k}"] = _chain_stats(samples.beta[:, k])
    out["sigma"] = _chain_stats(samples.sigma)
    return out


def warn_unmixed(label: str, stats: dict[str, SummaryStats], n_kept: int,
                 floor: int = ESS_FLOOR) -> None:
    """Log one warning for each parameter in `stats` whose ESS is below `floor`."""
    for param, s in stats.items():
        if s.ess < floor:
            log.warning("%s: ESS of %s is %.1f of %d draws, below %d; "
                        "the chain has not mixed", label, param, s.ess, n_kept, floor)


# ---------------------------------------------------------------------------
# core updates


class _Kernel:
    """The sweep's fixed arrays for one (dataset, priors), built once per chain."""

    def __init__(self, data: PanelDataset, priors: PriorSet):
        self.n_ind = data.n_individuals
        self.X = np.column_stack([np.ones(data.n_obs), data.x1, data.x2])
        self.codes = data.codes
        y = data.y.astype(np.float64)
        self.Xty = self.X.T @ y
        self.y_count = np.bincount(self.codes, weights=y, minlength=self.n_ind)
        self.prior_means = np.array([p.mean for p in priors.beta_priors])
        self.prior_vars = np.array([p.variance for p in priors.beta_priors])
        self.sigma2_prior = priors.sigma2_prior

    def mu(self, beta, eps) -> np.ndarray:
        return self.X @ beta + eps[self.codes]

    def sweep(self, beta, eps, sigma2, mu, sp, chol, log_scale, eps_scales, rng):
        """Beta block, eps scalars, sigma2 Gibbs, in that order; sp is softplus(mu).

        Returns (beta, eps, sigma2, mu, sp, beta accepted, eps accepted per
        individual).
        """
        codes, n_ind = self.codes, self.n_ind
        d = (chol @ rng.standard_normal(3)) * math.exp(log_scale)
        beta_p = beta + d
        mu_p = mu + self.X @ d
        sp_p = softplus(mu_p)
        dll = float(self.Xty @ d - (sp_p.sum() - sp.sum()))
        m, v = self.prior_means, self.prior_vars
        dpr = float((((beta - m) ** 2 - (beta_p - m) ** 2) / (2.0 * v)).sum())
        u = rng.random()
        acc_b = u > 0.0 and math.log(u) < dll + dpr
        if acc_b:
            beta, mu, sp = beta_p, mu_p, sp_p

        d = eps_scales * rng.standard_normal(n_ind)
        mu_p = mu + d[codes]
        sp_p = softplus(mu_p)
        dll = self.y_count * d - np.bincount(codes, weights=sp_p - sp, minlength=n_ind)
        eps_p = eps + d
        dpr = (eps * eps - eps_p * eps_p) / (2.0 * sigma2)
        with np.errstate(divide="ignore"):
            acc_e = np.log(rng.random(n_ind)) < dll + dpr
        eps = np.where(acc_e, eps_p, eps)
        acc_obs = acc_e[codes]
        mu = np.where(acc_obs, mu_p, mu)
        sp = np.where(acc_obs, sp_p, sp)
        return beta, eps, gibbs_sigma2(eps, self.sigma2_prior, rng), mu, sp, acc_b, acc_e

    def eps_scales(self, mu, sigma2) -> np.ndarray:
        """Approximate conditional sd of each eps_i: 1/sqrt(prior precision + Fisher info)."""
        p = expit(mu)
        fisher = np.bincount(self.codes, weights=p * (1.0 - p), minlength=self.n_ind)
        return 1.0 / np.sqrt(1.0 / sigma2 + fisher)


def metropolis_sweep(data: PanelDataset, state: ParameterState, priors: PriorSet,
                     rng: np.random.Generator, *, beta_log_scale: float = 0.0,
                     eps_scales=None) -> ParameterState:
    """One fixed-scale sweep (beta block, eps scalars, sigma2 Gibbs).

    No adaptation happens here, so the sweep is a fixed Markov kernel that
    leaves the posterior invariant -- the building block for kernel
    validation harnesses.
    """
    kernel = _Kernel(data, priors)
    scales = (np.ones(data.n_individuals) if eps_scales is None
              else np.asarray(eps_scales, dtype=np.float64))
    mu = kernel.mu(state.beta, state.epsilon)
    beta, eps, sigma2, *_ = kernel.sweep(state.beta, state.epsilon, state.sigma2,
                                         mu, softplus(mu), np.eye(3), beta_log_scale,
                                         scales, rng)
    return ParameterState(beta=beta, epsilon=eps, sigma2=sigma2)


def initial_state(data: PanelDataset, priors: PriorSet) -> ParameterState:
    """Deterministic start: beta at prior means, eps at 0, sigma2 at the prior mode."""
    beta = np.array([p.mean for p in priors.beta_priors])
    ig = priors.sigma2_prior
    sigma2 = ig.scale / (ig.shape + 1.0)
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        sigma2 = 1.0
    return ParameterState(beta=beta, epsilon=np.zeros(data.n_individuals), sigma2=sigma2)


def run_chain(data: PanelDataset, priors: PriorSet, config: ChainConfig) -> PosteriorSamples:
    """Adapt the proposals over burn_in iterations, then freeze them and run
    samples*thin iterations, keeping every thin-th draw."""
    rng = np.random.default_rng(derive_seed(config.seed))
    kernel = _Kernel(data, priors)
    n_ind = data.n_individuals
    state = initial_state(data, priors)
    with np.errstate(invalid="ignore"):
        if not math.isfinite(log_posterior(data, state, priors)):
            raise SamplerError("log posterior is not finite at the initial state")
    beta, eps, sigma2 = state.beta, state.epsilon, state.sigma2
    mu = kernel.mu(beta, eps)
    sp = softplus(mu)

    beta_chol = np.eye(3)
    log_scale_beta = math.log(0.1)
    # scalar proposals start at 2.4x the conditional-sd estimate (1-d optimum)
    eps_log_mult = np.full(n_ind, math.log(2.4))
    eps_scales = np.full(n_ind, 2.4)
    beta_hist = np.empty((config.burn_in, 3))
    win_beta_acc = 0
    win_eps_acc = np.zeros(n_ind)
    for t in range(config.burn_in):
        beta, eps, sigma2, mu, sp, acc_b, acc_e = kernel.sweep(
            beta, eps, sigma2, mu, sp, beta_chol, log_scale_beta, eps_scales, rng)
        beta_hist[t] = beta
        win_beta_acc += acc_b
        win_eps_acc += acc_e
        if (t + 1) % _ADAPT_WINDOW:
            continue
        step = 0.1 / math.sqrt((t + 1) // _ADAPT_WINDOW)
        log_scale_beta = adapt_scale(log_scale_beta, win_beta_acc / _ADAPT_WINDOW,
                                     _TARGET_ACCEPT_BLOCK, step)
        if t + 1 >= _COV_START:
            # trailing half of the burn-in draws, so the frozen early
            # phase stops pinning the covariance down
            hist = beta_hist[(t + 1) // 2: t + 1]
            beta_chol = np.linalg.cholesky(np.cov(hist.T) + _COV_JITTER * np.eye(3))
            if t + 1 == _COV_START:
                log_scale_beta = math.log(2.38 / math.sqrt(3.0))
        eps_log_mult = eps_log_mult + step * (win_eps_acc / _ADAPT_WINDOW
                                              - _TARGET_ACCEPT_SCALAR)
        eps_scales = np.exp(eps_log_mult) * kernel.eps_scales(mu, sigma2)
        win_beta_acc = 0
        win_eps_acc = np.zeros(n_ind)

    n_post = config.samples * config.thin
    kept_beta = np.empty((config.samples, 3))
    kept_sigma2 = np.empty(config.samples)
    post_beta_acc = 0
    post_eps_acc = np.zeros(n_ind)
    for k in range(config.samples):
        for _ in range(config.thin):
            beta, eps, sigma2, mu, sp, acc_b, acc_e = kernel.sweep(
                beta, eps, sigma2, mu, sp, beta_chol, log_scale_beta, eps_scales, rng)
            post_beta_acc += acc_b
            post_eps_acc += acc_e
        kept_beta[k] = beta
        kept_sigma2[k] = sigma2

    return PosteriorSamples(
        beta=kept_beta,
        sigma2=kept_sigma2,
        accept_beta=post_beta_acc / n_post,
        accept_epsilon=post_eps_acc / n_post,
    )


def draws_to_csv(samples: PosteriorSamples, path: str) -> None:
    """Write kept draws as long-form rows `iteration,parameter,value`."""
    names = ["beta0", "beta1", "beta2", "sigma2"]
    draws = np.column_stack([samples.beta, samples.sigma2])
    write_csv(path, ["iteration", "parameter", "value"],
              ([it + 1, name, value] for it in range(samples.n_kept)
               for name, value in zip(names, draws[it].tolist())))
