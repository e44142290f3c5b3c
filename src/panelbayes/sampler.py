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
(dataset, priors): it holds y, the design matrix, the individual codes and
the prior arrays.

Proposal scales are tuned only during burn-in: acceptance rates are averaged
over `adapt_window` iterations and the log scales nudged toward the 0.234
(block) / 0.44 (scalar) targets with a diminishing step 0.1/sqrt(window).
The beta proposal starts as identity*scale and switches to the Cholesky
factor of the empirical covariance of the burn-in draws (plus diagonal
jitter) once 500 burn-in iterations have accumulated. Scalar proposals are
expressed relative to a per-individual conditional-scale estimate
1/sqrt(1/sigma2 + sum_j p_ij(1-p_ij)), refreshed each adaptation window, so
they stay usable whether sigma2 is diffuse or pinned near zero. Everything
is frozen when burn-in ends, so the kept draws come from a fixed Markov
kernel. A chain is a pure function of (data, priors, config): identical
seeds give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import SamplerError
from .model import PanelDataset, ParameterState, log_posterior, write_csv
from .priors import InverseGammaPrior, PriorSet
from .seeding import derive_seed

_COV_START = 500      # burn-in iterations before the empirical-covariance proposal
_COV_JITTER = 1e-6
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ChainConfig:
    burn_in: int = 2000
    samples: int = 10000
    thin: int = 1
    seed: int = 0
    target_accept_block: float = 0.234
    target_accept_scalar: float = 0.44
    adapt_window: int = 50
    store_epsilon: bool = False

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not (0.0 < self.target_accept_block < 1.0 and 0.0 < self.target_accept_scalar < 1.0):
            raise ValueError("acceptance targets must lie in (0, 1)")
        if self.adapt_window < 1:
            raise ValueError("adapt_window must be >= 1")


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Kept draws plus acceptance bookkeeping for one chain."""

    beta: np.ndarray              # (n_kept, 3)
    sigma2: np.ndarray            # (n_kept,)
    epsilon: np.ndarray | None    # (n_kept, I) when stored, else None
    accept_beta: float
    accept_epsilon: np.ndarray    # per-individual acceptance rates
    config: ChainConfig
    seed: int

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


# ---------------------------------------------------------------------------
# core updates


class _Kernel:
    """The sweep's fixed arrays for one (dataset, priors), built once per chain."""

    def __init__(self, data: PanelDataset, priors: PriorSet):
        self.n_ind = data.n_individuals
        self.y = data.y.astype(np.float64)
        self.X = np.column_stack([np.ones(data.n_obs), data.x1, data.x2])
        self.codes = data.codes
        self.prior_means = np.array([p.mean for p in priors.beta_priors])
        self.prior_vars = np.array([p.variance for p in priors.beta_priors])
        self.sigma2_prior = priors.sigma2_prior

    def mu(self, beta, eps) -> np.ndarray:
        return self.X @ beta + eps[self.codes]

    def sweep(self, beta, eps, sigma2, mu, chol, log_scale, eps_scales, rng):
        """Beta block, eps scalars, sigma2 Gibbs, in that order.

        Returns (beta, eps, sigma2, mu, beta accepted, eps accepted per individual).
        """
        y, codes, n_ind = self.y, self.codes, self.n_ind
        d = (chol @ rng.standard_normal(3)) * math.exp(log_scale)
        beta_p = beta + d
        mu_p = mu + self.X @ d
        dll = float(y @ (mu_p - mu)
                    - (np.logaddexp(0.0, mu_p).sum() - np.logaddexp(0.0, mu).sum()))
        m, v = self.prior_means, self.prior_vars
        dpr = float((((beta - m) ** 2 - (beta_p - m) ** 2) / (2.0 * v)).sum())
        u = rng.random()
        acc_b = u > 0.0 and math.log(u) < dll + dpr
        if acc_b:
            beta, mu = beta_p, mu_p

        d = eps_scales * rng.standard_normal(n_ind)
        dmu = d[codes]
        mu_p = mu + dmu
        obs_delta = y * dmu - (np.logaddexp(0.0, mu_p) - np.logaddexp(0.0, mu))
        dll = np.bincount(codes, weights=obs_delta, minlength=n_ind)
        eps_p = eps + d
        dpr = (eps * eps - eps_p * eps_p) / (2.0 * sigma2)
        with np.errstate(divide="ignore"):
            acc_e = np.log(rng.random(n_ind)) < dll + dpr
        eps = np.where(acc_e, eps_p, eps)
        mu = mu + np.where(acc_e[codes], dmu, 0.0)
        return beta, eps, gibbs_sigma2(eps, self.sigma2_prior, rng), mu, acc_b, acc_e

    def eps_scales(self, mu, sigma2) -> np.ndarray:
        """Approximate conditional sd of each eps_i: 1/sqrt(prior precision + Fisher info)."""
        p = expit(mu)
        fisher = np.bincount(self.codes, weights=p * (1.0 - p), minlength=self.n_ind)
        return 1.0 / np.sqrt(1.0 / sigma2 + fisher)


def metropolis_sweep(data: PanelDataset, state: ParameterState, priors: PriorSet,
                     rng: np.random.Generator, *, beta_chol=None,
                     beta_log_scale: float = 0.0, eps_scales=None) -> ParameterState:
    """One fixed-scale sweep (beta block, eps scalars, sigma2 Gibbs).

    No adaptation happens here, so the sweep is a fixed Markov kernel that
    leaves the posterior invariant -- the building block for kernel
    validation harnesses.
    """
    kernel = _Kernel(data, priors)
    chol = np.eye(3) if beta_chol is None else np.asarray(beta_chol, dtype=np.float64)
    scales = (np.ones(data.n_individuals) if eps_scales is None
              else np.asarray(eps_scales, dtype=np.float64))
    beta, eps, sigma2, *_ = kernel.sweep(state.beta, state.epsilon, state.sigma2,
                                         kernel.mu(state.beta, state.epsilon),
                                         chol, beta_log_scale, scales, rng)
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
    """Run burn_in + samples*thin iterations and keep every thin-th draw."""
    seed = derive_seed(config.seed)
    rng = np.random.default_rng(seed)
    kernel = _Kernel(data, priors)
    n_ind = data.n_individuals
    state = initial_state(data, priors)
    with np.errstate(invalid="ignore"):
        if not math.isfinite(log_posterior(data, state, priors)):
            raise SamplerError("log posterior is not finite at the initial state")
    beta, eps, sigma2 = state.beta, state.epsilon, state.sigma2
    mu = kernel.mu(beta, eps)

    burn, thin = config.burn_in, config.thin
    total = burn + config.samples * thin
    kept_beta = np.empty((config.samples, 3))
    kept_sigma2 = np.empty(config.samples)
    kept_eps = np.empty((config.samples, n_ind)) if config.store_epsilon else None

    beta_chol = np.eye(3)
    log_scale_beta = math.log(0.1)
    cov_active = False
    # scalar proposals start at 2.4x the conditional-sd estimate (1-d optimum)
    eps_log_mult = np.full(n_ind, math.log(2.4))
    eps_scales = np.full(n_ind, 2.4)
    beta_hist = np.empty((burn, 3))

    win_len = 0
    win_beta_acc = 0
    win_eps_acc = np.zeros(n_ind)
    win_index = 0
    post_beta_acc = 0
    post_eps_acc = np.zeros(n_ind)
    kept = 0

    for t in range(total):
        beta, eps, sigma2, mu, acc_b, acc_e = kernel.sweep(
            beta, eps, sigma2, mu, beta_chol, log_scale_beta, eps_scales, rng)

        if t < burn:
            beta_hist[t] = beta
            win_len += 1
            win_beta_acc += acc_b
            win_eps_acc += acc_e
            if win_len == config.adapt_window:
                win_index += 1
                step = 0.1 / math.sqrt(win_index)
                log_scale_beta = adapt_scale(log_scale_beta, win_beta_acc / win_len,
                                             config.target_accept_block, step)
                if t + 1 >= _COV_START:
                    # trailing half of the burn-in draws, so the frozen early
                    # phase stops pinning the covariance down
                    hist = beta_hist[(t + 1) // 2: t + 1]
                    cov = np.cov(hist.T) + _COV_JITTER * np.eye(3)
                    beta_chol = np.linalg.cholesky(cov)
                    if not cov_active:
                        cov_active = True
                        log_scale_beta = math.log(2.38 / math.sqrt(3.0))
                eps_log_mult = eps_log_mult + step * (win_eps_acc / win_len
                                                      - config.target_accept_scalar)
                eps_scales = np.exp(eps_log_mult) * kernel.eps_scales(mu, sigma2)
                win_len = 0
                win_beta_acc = 0
                win_eps_acc = np.zeros(n_ind)
        else:
            post_beta_acc += acc_b
            post_eps_acc += acc_e
            k = t - burn
            if (k + 1) % thin == 0:
                kept_beta[kept] = beta
                kept_sigma2[kept] = sigma2
                if kept_eps is not None:
                    kept_eps[kept] = eps
                kept += 1

    n_post = total - burn
    return PosteriorSamples(
        beta=kept_beta,
        sigma2=kept_sigma2,
        epsilon=kept_eps,
        accept_beta=post_beta_acc / n_post,
        accept_epsilon=post_eps_acc / n_post,
        config=config,
        seed=seed,
    )


def draws_to_csv(samples: PosteriorSamples, path: str) -> None:
    """Write kept draws as long-form rows `iteration,parameter,value`."""
    names = ["beta0", "beta1", "beta2", "sigma2"]
    columns = [samples.beta, samples.sigma2]
    if samples.epsilon is not None:
        names += [f"epsilon{j + 1}" for j in range(samples.epsilon.shape[1])]
        columns.append(samples.epsilon)
    draws = np.column_stack(columns)
    write_csv(path, ["iteration", "parameter", "value"],
              ([it + 1, name, value] for it in range(samples.n_kept)
               for name, value in zip(names, draws[it].tolist())))
