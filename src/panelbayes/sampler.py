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
individual codes, the beta prior means and 2*variances, Xty = X'y,
y_count (the ones per individual) and the sigma2 full-conditional shape;
the state with its cache mu = X beta + eps[codes] and sp = softplus(mu),
which every move keeps in step; the proposal and how it is tuned
(`_Chain.adapt`, burn-in only); and the acceptance tallies acc_b (beta) and
acc_e (eps, per individual), which each sweep adds to. A block then costs
one softplus pass over the observations, and its y*dmu terms reduce to
Xty . d and y_count * d. A chain is a pure function of (data, priors,
config): identical seeds give bit-identical output.

At the sizes the study and `spindex` fit, a sweep is bound by how many numpy
calls it makes. The proposal is fixed within a burn-in adaptation window and
through the whole sampling phase, so `_Chain.sweep` runs a window of n
sweeps at once and draws its randomness in one pass per window: the normals
of both blocks, the uniforms of both accept tests (taking their logs in
bulk) and the n standard-gamma variates of the sigma2 step. In the same pass
it builds every proposal term that does not depend on the state: the beta
steps with their X d rows and Xty . d, and the eps steps with y_count * d
and d^2/2. These window arrays take O(n * n_obs) memory. They are allocated
once per chain for n = _ADAPT_WINDOW, the longest window `run_chain` asks
for; the sampling phase runs as a series of such windows. Each sweep then
does only the state-dependent work: the two softplus passes, the bincount,
the prior deltas, the accept tests and the masked copies. The chain owns
its eps and two (mu, sp) rows, the state's and a spare one, plus one
scratch array each of observation and of individual size. A sweep writes
into these and allocates no proposal array. Each proposal is built in the
spare row with ufunc `out=`. An accepted beta proposal swaps the rows; the
eps block copies its accepted entries into eps and the state's row
(np.putmask). The sp rows are one (2, n_obs) array, so one sum over axis 1
totals the current and the proposed sp, bit for bit as two 1-d sums. The
3-term beta step and prior delta are Python floats. Both blocks accept when
log u < delta, so a zero uniform (log 0 = -inf) accepts.
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


def _inverse_gamma(scale: float, g: float) -> float:
    """The IG(shape, scale) draw made from a standard-gamma variate g of that
    shape. numpy's gamma(shape, 1/scale) is (1/scale) * standard_gamma(shape),
    so this is 1/gamma(shape, 1/scale) bit for bit; the floor at tiny keeps
    sigma2 finite when g is 0."""
    return 1.0 / max((1.0 / scale) * g, _TINY)


def gibbs_sigma2(epsilon, prior: InverseGammaPrior, rng: np.random.Generator) -> float:
    """Exact draw from IG(shape + I/2, scale + sum(eps^2)/2)."""
    eps = np.asarray(epsilon, dtype=np.float64)
    shape = prior.shape + 0.5 * eps.size
    scale = prior.scale + 0.5 * float(eps.dot(eps))
    return _inverse_gamma(scale, float(rng.standard_gamma(shape)))


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
    mu = X beta + eps[codes] and sp = softplus(mu) cache, the spare
    (mu, sp) row and scratch arrays, the proposal and the acceptance
    tallies."""

    def __init__(self, data: PanelDataset, priors: PriorSet, state: ParameterState,
                 log_scale: float, eps_scales: np.ndarray):
        self.n_ind = n_ind = data.n_individuals
        n_obs = data.n_obs
        self.X = np.column_stack([np.ones(n_obs), data.x1, data.x2])
        self.codes = data.codes
        y = data.y.astype(np.float64)
        self.Xty = self.X.T @ y
        self.y_count = np.bincount(self.codes, weights=y, minlength=n_ind)
        self.beta_prior = [(float(p.mean), 2.0 * float(p.variance)) for p in priors.beta_priors]
        self.sigma2_shape = priors.sigma2_prior.shape + 0.5 * n_ind
        self.sigma2_scale = priors.sigma2_prior.scale
        # the chain owns its eps and its (mu, sp) rows and writes into them:
        # row `cur` holds the state's, the other row is the spare pair that
        # proposals are built in, so one sum over axis 1 totals both sp rows
        self.beta, self.eps, self.sigma2 = state.beta, state.epsilon.copy(), state.sigma2
        self.mus, self.sps, self.cur = np.empty((2, n_obs)), np.empty((2, n_obs)), 0
        np.add(self.X @ self.beta, self.eps[self.codes], out=self.mus[0])
        softplus(self.mus[0], out=self.sps[0])
        # scratch arrays of observation and of individual size
        self.obs_tmp, self.ind_tmp = np.empty(n_obs), np.empty(n_ind)
        self.chol, self.log_scale, self.eps_scales = np.eye(3), log_scale, eps_scales
        self.eps_log_mult = math.log(2.4)  # 2.4: the 1-d optimal-scaling multiple
        self.acc_b, self.acc_e = 0, np.zeros(n_ind)
        # the window arrays of `sweep`, allocated once per chain: their pages
        # are touched once, not once per window
        w = _ADAPT_WINDOW
        self.z, self.log_u = np.empty((w, 3 + n_ind)), np.empty((w, 1 + n_ind))
        self.dmu_beta = np.empty((w, n_obs))
        self.y_d, self.half_d2 = np.empty((w, n_ind)), np.empty((w, n_ind))
        self.accepted = np.empty((w, n_ind), dtype=bool)

    @property
    def mu(self) -> np.ndarray:
        return self.mus[self.cur]

    @property
    def sp(self) -> np.ndarray:
        return self.sps[self.cur]

    def sweep(self, rng: np.random.Generator, n: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """n <= _ADAPT_WINDOW sweeps at the current proposal, each the beta
        block, the eps scalars and the sigma2 Gibbs step, in that order,
        adding its acceptances to the tallies. Returns beta (n, 3) and
        sigma2 (n,) as they stand after each sweep.

        The window's randomness and its state-free proposal terms are made
        first, in one pass (see the module docstring), with three RNG calls
        whatever n is. Each proposal is built in the spare (mu, sp) row; an
        accepted beta proposal swaps the rows, and the eps block writes its
        accepted entries into the state (np.putmask)."""
        n_ind, codes, sigma2_scale = self.n_ind, self.codes, self.sigma2_scale
        z, log_u = self.z[:n], self.log_u[:n]
        rng.standard_normal(out=z)
        rng.random(out=log_u)
        gammas = rng.standard_gamma(self.sigma2_shape, n).tolist()
        with np.errstate(divide="ignore"):  # log 0 = -inf, which accepts
            np.log(log_u, out=log_u)
        d_beta = z[:, :3].dot(self.chol.T)
        d_beta *= math.exp(self.log_scale)
        dmu_beta = np.dot(d_beta, self.X.T, out=self.dmu_beta[:n])
        xty_d = d_beta.dot(self.Xty).tolist()
        d_eps = z[:, 3:]
        d_eps *= self.eps_scales
        y_d = np.multiply(d_eps, self.y_count, out=self.y_d[:n])
        half_d2 = np.multiply(d_eps, d_eps, out=self.half_d2[:n])
        half_d2 *= 0.5
        accepted = self.accepted[:n]

        (m0, v0), (m1, v1), (m2, v2) = self.beta_prior
        b0, b1, b2 = self.beta.tolist()
        eps, mus, sps, cur = self.eps, self.mus, self.sps, self.cur
        mu, sp, mu_p, sp_p = mus[cur], sps[cur], mus[1 - cur], sps[1 - cur]
        obs_tmp, ind_tmp, sigma2 = self.obs_tmp, self.ind_tmp, self.sigma2
        betas, sigma2s = [], []
        for (s0, s1, s2), xty_dt, lu_beta, dmu, d, y_dt, half_d2t, lu_eps, acc, g in zip(
                d_beta.tolist(), xty_d, log_u[:, 0].tolist(), dmu_beta, d_eps, y_d,
                half_d2, log_u[:, 1:], accepted, gammas):
            np.add(mu, dmu, out=mu_p)
            softplus(mu_p, out=sp_p)
            totals = sps.sum(axis=1).tolist()  # row for row as sp_p.sum(), sp.sum()
            dll = xty_dt - (totals[1 - cur] - totals[cur])
            p0, p1, p2 = b0 + s0, b1 + s1, b2 + s2
            # the prior delta in Python floats
            dpr = (((b0 - m0) * (b0 - m0) - (p0 - m0) * (p0 - m0)) / v0
                   + ((b1 - m1) * (b1 - m1) - (p1 - m1) * (p1 - m1)) / v1
                   + ((b2 - m2) * (b2 - m2) - (p2 - m2) * (p2 - m2)) / v2)
            if lu_beta < dll + dpr:
                b0, b1, b2 = p0, p1, p2
                cur = 1 - cur
                mu, sp, mu_p, sp_p = mu_p, sp_p, mu, sp
                self.acc_b += 1

            np.add(mu, d[codes], out=mu_p)
            softplus(mu_p, out=sp_p)
            np.subtract(sp_p, sp, out=obs_tmp)
            dll = y_dt - np.bincount(codes, weights=obs_tmp, minlength=n_ind)
            # (eps^2 - eps_p^2) / (2 sigma2) = -(eps*d + d^2/2) / sigma2
            np.multiply(eps, d, out=ind_tmp)
            ind_tmp += half_d2t
            ind_tmp *= 1.0 / sigma2
            dll -= ind_tmp
            np.less(lu_eps, dll, out=acc)
            np.add(eps, d, out=ind_tmp)
            np.putmask(eps, acc, ind_tmp)
            acc_obs = acc[codes]
            np.putmask(mu, acc_obs, mu_p)
            np.putmask(sp, acc_obs, sp_p)
            sigma2 = _inverse_gamma(sigma2_scale + 0.5 * float(eps.dot(eps)), g)
            betas.append([b0, b1, b2])
            sigma2s.append(sigma2)

        self.beta, self.sigma2, self.cur = np.array([b0, b1, b2]), sigma2, cur
        self.acc_e += accepted.sum(axis=0)
        return np.array(betas), np.array(sigma2s)

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
    thin, n_post = config.thin, config.samples * config.thin
    kept_beta = np.empty((config.samples, 3))
    kept_sigma2 = np.empty(config.samples)
    # one sweep call per window of sweeps: burn-in windows end where the
    # proposal is tuned, the last may be partial and is not tuned
    for start in range(0, config.burn_in, _ADAPT_WINDOW):
        stop = min(start + _ADAPT_WINDOW, config.burn_in)
        beta_hist[start:stop] = chain.sweep(rng, stop - start)[0]
        if stop % _ADAPT_WINDOW == 0:
            chain.adapt(beta_hist[:stop])
    # burn_in need not be a multiple of the window: drop its last partial tally
    chain.acc_b, chain.acc_e = 0, np.zeros(n_ind)
    for start in range(0, n_post, _ADAPT_WINDOW):
        betas, sigma2s = chain.sweep(rng, min(_ADAPT_WINDOW, n_post - start))
        # keep sampling sweeps thin-1, 2*thin-1, ...; draw k is sweep k*thin + thin-1
        first = (thin - 1 - start) % thin
        k = (start + first) // thin
        kept = betas[first::thin]
        kept_beta[k:k + len(kept)] = kept
        kept_sigma2[k:k + len(kept)] = sigma2s[first::thin]

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
