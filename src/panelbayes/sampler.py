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

`run_chain` and `metropolis_sweep` each build one `_Chain` and call its
`sweep`. A `_Chain` holds the fixed arrays of (dataset, priors): X, the
individual codes, the beta prior means and 2*variances, Xty = X'y and
y_count (the ones per individual); the state with its cache
mu = X beta + eps[codes] and sp = softplus(mu), which every move keeps in
step; the proposal and how it is tuned (`_Chain.adapt`, burn-in only); and
the acceptance tallies acc_b (beta) and acc_e (eps, per individual), which
each sweep adds to. A block then costs one softplus pass over the
observations, and its y*dmu terms reduce to Xty @ d and y_count * d. A
chain is a pure function of (data, priors, config): identical seeds give
bit-identical output.

At the sizes the study and `spindex` fit, a sweep is bound by how many numpy
calls it makes, so `sweep` keeps that number small. It builds each proposal
in place in fresh arrays, puts the current values back into the rejected
eps entries there (np.putmask), and rebinds the state and its cache to those
arrays, never writing into the state. It calls ndarray.dot, which reaches
the same BLAS routines as the @ operator without its dispatch. It computes
the 3-term beta prior delta with Python floats. It leaves the divide
warning of log(0) (a zero uniform, which accepts its eps proposal) to the
one np.errstate that `run_chain` and `metropolis_sweep` each enter around
all of their sweeps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import PanelDataset, ParameterState, expit, log_posterior, softplus, write_csv
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
PARAMETERS = ("beta0", "beta1", "beta2", "sigma")  # what a fit reports, in this order

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
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
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


def gibbs_sigma2(epsilon, prior: InverseGammaPrior, rng: np.random.Generator) -> float:
    """Exact draw from IG(shape + I/2, scale + sum(eps^2)/2)."""
    eps = np.asarray(epsilon, dtype=np.float64)
    shape = prior.shape + 0.5 * eps.size
    scale = prior.scale + 0.5 * float(eps.dot(eps))
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
    stop = rho <= 0.0
    k = int(stop.argmax()) if stop.any() else rho.size
    s = float(np.cumsum(rho[:k])[-1]) if k else 0.0  # cumsum adds left to right
    return float(min(float(n), max(1.0, n / (1.0 + 2.0 * s))))


def _chain_stats(x: np.ndarray) -> SummaryStats:
    if x.size < 2:
        raise ValueError("need at least 2 kept draws to summarize")
    lo, hi = np.quantile(x, [0.025, 0.975])
    return SummaryStats(mean=float(x.mean()), sd=float(x.std(ddof=1)),
                        lower=float(lo), upper=float(hi),
                        ess=effective_sample_size(x))


def summarize(samples: PosteriorSamples) -> dict[str, SummaryStats]:
    """Mean / SD / equal-tailed 95% interval / ESS for each of PARAMETERS."""
    return {param: _chain_stats(x)
            for param, x in zip(PARAMETERS, (*samples.beta.T, samples.sigma))}


def warn_unmixed(label: str, stats: dict[str, SummaryStats], n_kept: int) -> None:
    """Log one warning for each parameter in `stats` whose ESS is below ESS_FLOOR."""
    for param, s in stats.items():
        if s.ess < ESS_FLOOR:
            log.warning("%s: ESS of %s is %.1f of %d draws, below %d; "
                        "the chain has not mixed", label, param, s.ess, n_kept, ESS_FLOOR)


# ---------------------------------------------------------------------------
# core updates


class _Chain:
    """One chain: the fixed arrays of (dataset, priors), the state with its
    mu = X beta + eps[codes] and sp = softplus(mu) cache, the proposal and
    the acceptance tallies."""

    def __init__(self, data: PanelDataset, priors: PriorSet, state: ParameterState,
                 log_scale: float, eps_scales: np.ndarray):
        self.n_ind = data.n_individuals
        self.X = np.column_stack([np.ones(data.n_obs), data.x1, data.x2])
        self.codes = data.codes
        y = data.y.astype(np.float64)
        self.Xty = self.X.T @ y
        self.y_count = np.bincount(self.codes, weights=y, minlength=self.n_ind)
        self.prior_means = [float(p.mean) for p in priors.beta_priors]
        self.prior_2vars = [2.0 * float(p.variance) for p in priors.beta_priors]
        self.sigma2_prior = priors.sigma2_prior
        self.beta, self.eps, self.sigma2 = state.beta, state.epsilon, state.sigma2
        self.mu = self.X @ self.beta + self.eps[self.codes]
        self.sp = softplus(self.mu)
        self.chol, self.log_scale, self.eps_scales = np.eye(3), log_scale, eps_scales
        self.eps_log_mult = math.log(2.4)  # 2.4: the 1-d optimal-scaling multiple
        self.acc_b, self.acc_e = 0, np.zeros(self.n_ind)

    def sweep(self, rng: np.random.Generator) -> None:
        """Beta block, eps scalars, sigma2 Gibbs, in that order, each adding
        its acceptances to the tallies. Proposals are built in place in fresh
        arrays; the state and its cache are rebound, never written into. The
        caller switches off divide warnings (see the module docstring)."""
        codes, n_ind, beta = self.codes, self.n_ind, self.beta
        d = self.chol.dot(rng.standard_normal(3))
        d *= math.exp(self.log_scale)
        beta_p = beta + d
        mu_p = self.X.dot(d)
        mu_p += self.mu
        sp_p = softplus(mu_p)
        dll = float(self.Xty.dot(d)) - (float(sp_p.sum()) - float(self.sp.sum()))
        # the prior delta in Python floats, summed left to right as numpy sums 3 terms
        dpr = 0.0
        for b, b_p, m, v2 in zip(beta.tolist(), beta_p.tolist(), self.prior_means,
                                 self.prior_2vars):
            dpr += ((b - m) * (b - m) - (b_p - m) * (b_p - m)) / v2
        u = rng.random()
        if u > 0.0 and math.log(u) < dll + dpr:
            self.beta, self.mu, self.sp = beta_p, mu_p, sp_p
            self.acc_b += 1

        eps, mu, sp = self.eps, self.mu, self.sp
        d = rng.standard_normal(n_ind)
        d *= self.eps_scales
        mu_p = d[codes]
        mu_p += mu
        sp_p = softplus(mu_p)
        dll = self.y_count * d
        dll -= np.bincount(codes, weights=sp_p - sp, minlength=n_ind)
        eps_p = eps + d
        dpr = eps * eps
        dpr -= eps_p * eps_p
        dpr /= 2.0 * self.sigma2
        dll += dpr
        log_u = rng.random(n_ind)
        np.log(log_u, out=log_u)
        acc_e = log_u < dll
        self.acc_e += acc_e
        rej = ~acc_e
        rej_obs = rej[codes]
        np.putmask(eps_p, rej, eps)
        np.putmask(mu_p, rej_obs, mu)
        np.putmask(sp_p, rej_obs, sp)
        self.eps, self.mu, self.sp = eps_p, mu_p, sp_p
        self.sigma2 = gibbs_sigma2(self.eps, self.sigma2_prior, rng)

    def adapt(self, beta_hist: np.ndarray) -> None:
        """Tune the proposal at the end of a burn-in window of _ADAPT_WINDOW
        sweeps, given the burn-in beta draws so far, then clear the tallies.

        The window's acceptance rates nudge the log scales toward the
        optimal-scaling targets 0.234 (block) and 0.44 (scalar) with the
        diminishing step 0.1/sqrt(window). The beta proposal starts as the
        identity; from _COV_START draws on, it is the Cholesky factor of the
        empirical covariance of the trailing half of the draws (plus diagonal
        jitter), so the early phase stops pinning it down, and at _COV_START
        its log scale restarts at log(2.38/sqrt(3)). Each eps scale is an adapted multiple of the
        conditional-sd estimate 1/sqrt(1/sigma2 + sum_j p_ij(1-p_ij)), so it
        stays usable whether sigma2 is diffuse or pinned near zero. Its p_ij
        is `model.expit` of the cached mu_ij, the logistic exp(-softplus(-mu)),
        so p(1-p) stays finite and warning-free at any finite mu.
        """
        n = len(beta_hist)
        step = 0.1 / math.sqrt(n // _ADAPT_WINDOW)
        self.log_scale += step * (self.acc_b / _ADAPT_WINDOW - _TARGET_ACCEPT_BLOCK)
        if n >= _COV_START:
            cov = np.cov(beta_hist[n // 2:].T) + _COV_JITTER * np.eye(3)
            self.chol = np.linalg.cholesky(cov)
            if n == _COV_START:
                self.log_scale = math.log(2.38 / math.sqrt(3.0))
        self.eps_log_mult += step * (self.acc_e / _ADAPT_WINDOW - _TARGET_ACCEPT_SCALAR)
        p = expit(self.mu)
        fisher = np.bincount(self.codes, weights=p * (1.0 - p), minlength=self.n_ind)
        self.eps_scales = np.exp(self.eps_log_mult) * (1.0 / np.sqrt(1.0 / self.sigma2 + fisher))
        self.acc_b, self.acc_e = 0, np.zeros(self.n_ind)


def metropolis_sweep(data: PanelDataset, state: ParameterState, priors: PriorSet,
                     rng: np.random.Generator, *, beta_log_scale: float = 0.0,
                     eps_scales=None) -> ParameterState:
    """One fixed-scale sweep (beta block, eps scalars, sigma2 Gibbs).

    No adaptation happens here, so the sweep is a fixed Markov kernel that
    leaves the posterior invariant -- the building block for kernel
    validation harnesses.
    """
    scales = (np.ones(data.n_individuals) if eps_scales is None
              else np.asarray(eps_scales, dtype=np.float64))
    chain = _Chain(data, priors, state, beta_log_scale, scales)
    with np.errstate(divide="ignore"):
        chain.sweep(rng)
    return ParameterState(beta=chain.beta, epsilon=chain.eps, sigma2=chain.sigma2)


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
    samples*thin iterations, keeping every thin-th draw, so the kept draws
    come from a fixed Markov kernel."""
    rng = np.random.default_rng(derive_seed(config.seed))
    n_ind = data.n_individuals
    state = initial_state(data, priors)
    with np.errstate(invalid="ignore"):
        if not math.isfinite(log_posterior(data, state, priors)):
            raise FloatingPointError("log posterior is not finite at the initial state")
    # burn-in starts at a beta log scale of log 0.1 and an absolute eps sd of
    # 2.4; proposals are tuned after every window, then frozen for sampling
    chain = _Chain(data, priors, state, math.log(0.1), np.full(n_ind, 2.4))
    beta_hist = np.empty((config.burn_in, 3))
    n_post = config.samples * config.thin
    kept_beta = np.empty((config.samples, 3))
    kept_sigma2 = np.empty(config.samples)
    with np.errstate(divide="ignore"):  # log(0) of a zero uniform; see the module docstring
        for t in range(config.burn_in):
            chain.sweep(rng)
            beta_hist[t] = chain.beta
            if (t + 1) % _ADAPT_WINDOW == 0:
                chain.adapt(beta_hist[:t + 1])
        # burn_in need not be a multiple of the window: drop its last partial tally
        chain.acc_b, chain.acc_e = 0, np.zeros(n_ind)
        for k in range(config.samples):
            for _ in range(config.thin):
                chain.sweep(rng)
            kept_beta[k] = chain.beta
            kept_sigma2[k] = chain.sigma2

    return PosteriorSamples(
        beta=kept_beta,
        sigma2=kept_sigma2,
        accept_beta=chain.acc_b / n_post,
        accept_epsilon=chain.acc_e / n_post,
    )


def draws_to_csv(samples: PosteriorSamples, path: str) -> None:
    """Write kept draws as long-form rows `iteration,parameter,value`."""
    names = ["beta0", "beta1", "beta2", "sigma2"]
    draws = np.column_stack([samples.beta, samples.sigma2])
    write_csv(path, ["iteration", "parameter", "value"],
              ([it + 1, name, value] for it in range(samples.n_kept)
               for name, value in zip(names, draws[it].tolist())))
