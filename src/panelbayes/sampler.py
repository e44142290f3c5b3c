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

`metropolis_sweep` sweeps a `_Chain` once at fixed scales. `run_chain`
tunes one chain's proposal over the burn-in (`_Chain.adapt`), then runs a
copy of it in each of two sampling segments, on the seeds of its config's
`derive(0)` and `derive(1)`, the proposal frozen. Identical seeds give
bit-identical output, wherever the segments run.

A `_Chain` lays the observations on a time-major grid (`_grid`), by one rule
for balanced, ragged and one-row panels alike: each individual's go down a
column in time order, the first H in column i and each further run of up to
H in an overflow column that i owns. Padding cells hold X = 0 and mu = -inf,
whose softplus is exactly 0; every move keeps them at -inf. The state is
eps, the mu = X beta + eps cells and S, each column's sum of softplus(mu):
`mus` and `sums` hold the state's at [0] and the proposal's at [1]. A block
builds its proposal in [1] with ufunc outs and sums its softplus down the
columns into its S with one gemv; its y*dmu terms are Xty . d and
y_count * d. The beta block totals both S rows and, when it accepts, copies
the proposal's cells and S into the state. The eps block proposes mu + d, d
a row over the columns. Only a grid with overflow columns folds their S
changes into their owners' with a bincount and gathers d and the accept mask
through `owner`. It adds d * accepted to eps and mu, the proposal's bits or
the state's plus 0, and copies the accepted columns of S with one np.copyto.

A sweep is bound by its numpy calls at the sizes the study and `spindex`
fit, so its loop skips the dispatch layers it can, each 0.06-0.3 us a call
at these sizes: the column sums' gemv is the ndarray method `ones.dot`, not
`np.dot` behind its array-function dispatcher; the beta block's accepted
copies are slice assignments, not np.copyto; and the ufuncs are bound to
locals and take a positional out. The beta block's two S totals and the eps
block's delta go into buffers made once per window. The proposal is fixed
within a window of up to _ADAPT_WINDOW sweeps, so `sweep` first draws the
window's randomness (three RNG calls) and every state-free term: the beta
steps with their X d rows and Xty . d, and the eps steps with y_count * d
and d^2/2. Each window picks its softplus form once: it bounds every mu it
can propose by the state's largest mu plus every upward step it could
accept, |d_beta| . max|X| and max(0, max d_eps) summed over its sweeps.
Below _EXP_SAFE = 700 (exp overflows at 709.78) a softplus pass is
log1p(exp(mu)), two calls, else the overflow-safe np.logaddexp(0, mu), one
call, within 3 ulp of it: a pass took 0.6 against 0.6-0.7 us at 14 cells,
0.7 against 0.9-1.2 at 45, 1.9 against 7.4-8.3 at 600 and 7.1 against 43-57
at 3000 (2-vCPU VM). Both blocks accept when log u < delta, so u = 0 accepts.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .model import PanelDataset, ParameterState, expit, log_likelihood, softplus, write_csv
from .priors import InverseGammaPrior, PriorSet
from .seeding import derive_seed
from .workers import InParent

_ADAPT_WINDOW = 50            # burn-in iterations per adaptation step
_TARGET_ACCEPT_BLOCK = 0.234  # optimal-scaling acceptance targets (Roberts, Gelman
_TARGET_ACCEPT_SCALAR = 0.44  # & Gilks 1997; Roberts & Rosenthal 2001)
_COV_START = 500              # burn-in iterations before the empirical-covariance
                              # proposal; a multiple of _ADAPT_WINDOW
_COV_JITTER = 1e-6
_TINY = np.finfo(np.float64).tiny
_CHAIN_BYTES = 2 ** 30
_EXP_SAFE = 700.0             # below log(largest float64) = 709.78, where exp overflows
ESS_FLOOR = 100               # fewer effective draws than this and a fit is reported as unmixed
PARAMETERS = ("beta0", "beta1", "beta2", "sigma")  # what a fit reports, in this order

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainConfig:
    """A chain keeps 24 bytes per burn-in sweep and 32 per kept draw, so
    burn_in <= 44 739 242 and samples <= 33 554 432 keep _CHAIN_BYTES (1 GiB)
    each at most. thin costs time, not memory, and is unbounded."""

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
        for name, size in (("burn_in", 24), ("samples", 32)):
            if getattr(self, name) > _CHAIN_BYTES // size:
                raise ValueError(f"{name} must be <= {_CHAIN_BYTES // size} "
                                 f"({size} bytes each, at most 1 GiB)")

    def derive(self, *indices: int) -> ChainConfig:
        """This config on the seed `derive_seed(seed, *indices)`."""
        return replace(self, seed=derive_seed(self.seed, *indices))


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Kept draws plus acceptance bookkeeping for one chain: the draws of its
    sampling segments in segment order, and the acceptance rates over all of
    their sweeps."""

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


def _draw_sigma2(scale: float, eps: np.ndarray, g: float) -> float:
    """sigma2's full-conditional draw from a standard-gamma variate g of its
    shape, bit for bit 1/gamma(shape, 1/(scale + sum(eps^2)/2)); the floor
    keeps it finite at g = 0."""
    return 1.0 / max((1.0 / (scale + 0.5 * float(eps.dot(eps)))) * g, _TINY)


def _log1p_exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """softplus as log1p(exp(x)), in place in `out`; exp overflows above
    709.78, so a window takes it only below _EXP_SAFE."""
    return np.log1p(np.exp(x, out), out)


_logaddexp_0 = functools.partial(np.logaddexp, 0.0)  # the overflow-safe softplus(x, out)


def gibbs_sigma2(epsilon, prior: InverseGammaPrior, rng: np.random.Generator) -> float:
    """Exact draw from IG(shape + I/2, scale + sum(eps^2)/2)."""
    eps = np.asarray(epsilon, dtype=np.float64)
    return _draw_sigma2(prior.scale, eps, float(rng.standard_gamma(prior.shape + 0.5 * eps.size)))


def effective_sample_size(chain) -> float:
    """n / (1 + 2 * sum of autocorrelations up to the first non-positive lag)."""
    x = np.asarray(chain, dtype=np.float64)
    n = x.size
    if n < 2:
        return float(n)
    xc = x - x.mean()
    if not (xc * xc).any():  # no BLAS call, which could wake its threads
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
    """Mean / SD / equal-tailed 95% interval / ESS for each of PARAMETERS.
    A statistic that is not finite is a numeric failure, not a result:
    FloatingPointError names the first parameter with one."""
    stats = {param: _chain_stats(x)
             for param, x in zip(PARAMETERS, (*samples.beta.T, samples.sigma))}
    for param, s in stats.items():
        if not np.isfinite(astuple(s)).all():
            raise FloatingPointError(f"the summary of {param} is not finite: {s}")
    return stats


def warn_unmixed(label: str, stats: dict[str, SummaryStats], n_kept: int) -> None:
    """Log one warning for each parameter in `stats` whose ESS is below ESS_FLOOR."""
    for param, s in stats.items():
        if s.ess < ESS_FLOOR:
            log.warning("%s: ESS of %s is %.1f of %d draws, below %d; "
                        "the chain has not mixed", label, param, s.ess, n_kept, ESS_FLOOR)


# ---------------------------------------------------------------------------
# core updates


def _grid(codes: np.ndarray, n_ind: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The time-major grid, by one rule, of any panel (balanced, ragged or
    one-row) sorted by individual, then time: its height h, each observation's
    cell as the flat index row * width + column, and each column's owner.
    Column i holds individual i's first h observations, each further run of
    up to h one overflow column after the first n_ind. h is the individual
    count giving the fewest cells plus columns, the largest on a tie (a sweep
    costs about as much per cell as per column), so fewer than 2 * n_obs cells."""
    counts = np.bincount(codes, minlength=n_ind)
    n, owner = codes.size, np.arange(n_ind)
    if not n_ind:  # argmin of no costs raises
        return 0, codes, owner
    m = np.bincount(counts)  # the multiplicity of each distinct count u
    u = np.flatnonzero(m)
    cost = (u + 1) * (-(-u // u[:, None]) @ m[u])
    h = int(u[cost.size - 1 - np.argmin(cost[::-1])])
    extra = (counts - 1) // h
    run, row = np.divmod(np.arange(n) - (np.cumsum(counts) - counts)[codes], h)
    col = np.where(run > 0, (np.cumsum(extra) - extra + n_ind - 1)[codes] + run, codes)
    owner = np.concatenate([owner, np.repeat(owner, extra)])
    return h, row * owner.size + col, owner


class _Chain:
    """One chain for its whole life: its fixed arrays, grid state, proposal
    and tallies, from the burn-in proposal (beta log scale log 0.1, identity
    factor, absolute eps sd 2.4) on. It keeps no view of its own arrays: a
    copy or a pickle of it would not keep one."""

    def __init__(self, data: PanelDataset, priors: PriorSet, state: ParameterState):
        self.n_ind = n_ind = data.n_individuals
        X = np.empty((data.n_obs, 3))
        X[:, 0], X[:, 1], X[:, 2] = 1.0, data.x1, data.x2
        y = data.y.astype(np.float64)
        self.Xty = X.T @ y
        self.y_count = np.bincount(data.codes, weights=y, minlength=n_ind)
        self.x_max = np.abs(X).max(axis=0, initial=0.0)
        h, cells, self.owner = _grid(data.codes, n_ind)
        self.grid = h, c = h, self.owner.size
        shape = self.grid if h > 1 else (c,)  # sweep one row as 1-d arrays
        self.beta_prior = [(float(p.mean), 2.0 * float(p.variance)) for p in priors.beta_priors]
        self.sigma2_shape = priors.sigma2_prior.shape + 0.5 * n_ind
        self.sigma2_scale = priors.sigma2_prior.scale
        # X' on the grid, and the chain's own eps, mu cells and column sums
        self.X = np.zeros((3, h * c))
        self.beta, self.eps, self.sigma2 = state.beta, state.epsilon.copy(), state.sigma2
        self.mus, self.sums = np.full((2, *shape), -math.inf), np.empty((2, c))
        mu = self.mus[0].reshape(-1)
        for dest, values in zip((*self.X, mu), (*X.T, X @ self.beta + self.eps[data.codes])):
            dest[cells] = values
        self.ones = np.ones(h)  # for the column sums' gemv
        np.dot(self.ones, softplus(mu.reshape(self.grid)), out=self.sums[0])
        self.cell_tmp, self.col_tmp, self.ind_tmp = np.empty(shape), np.empty(c), np.empty(n_ind)
        self.log_scale, self.chol, self.eps_scales = math.log(0.1), np.eye(3), 2.4
        self.eps_log_mult = math.log(2.4)  # 2.4: the 1-d optimal-scaling multiple
        self.acc_b, self.acc_e = 0, np.zeros(n_ind)

    def sweep(self, rng: np.random.Generator, n: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """n <= _ADAPT_WINDOW sweeps at the current proposal, adding their
        acceptances to the tallies; returns beta (n, 3) and sigma2 (n,) as
        they stand after each sweep."""
        n_ind, owner, sigma2_scale = self.n_ind, self.owner, self.sigma2_scale
        fold, tall = owner.size > n_ind, self.grid[0] > 1
        z = rng.standard_normal((n, 3 + n_ind))
        log_u = rng.random((n, 1 + n_ind))
        gammas = rng.standard_gamma(self.sigma2_shape, n).tolist()
        with np.errstate(divide="ignore"):  # log 0 = -inf, which accepts
            np.log(log_u, out=log_u)
        d_beta = z[:, :3].dot(self.chol.T)
        d_beta *= math.exp(self.log_scale)
        dmu_beta = d_beta.dot(self.X).reshape(n, *self.cell_tmp.shape)
        xty_d = d_beta.dot(self.Xty).tolist()
        d_eps = z[:, 3:]
        d_eps *= self.eps_scales
        d_cols = d_eps[:, owner] if fold else d_eps
        y_d = d_eps * self.y_count
        half_d2 = d_eps * d_eps
        half_d2 *= 0.5
        accepted = np.empty((n, n_ind), dtype=bool)
        # no mu this window proposes exceeds this bound
        bound = (self.mus[0].max(initial=-math.inf) + float(np.abs(d_beta).dot(self.x_max).sum())
                 + float(d_eps.max(axis=1, initial=0.0).sum()))
        sp_of = _log1p_exp if bound < _EXP_SAFE else _logaddexp_0

        (m0, v0), (m1, v1), (m2, v2) = self.beta_prior
        b0, b1, b2 = self.beta.tolist()
        eps, sums = self.eps, self.sums
        (mu, mu_p), (s, s_p) = self.mus, sums
        sp, col_tmp, ind_tmp, sigma2 = self.cell_tmp, self.col_tmp, self.ind_tmp, self.sigma2
        sp_out = sp if tall else s_p
        totals, dll_eps = np.empty(2), np.empty(n_ind)
        # the ndarray method and bound ufuncs with a positional out skip
        # numpy's dispatch layers (see the module docstring)
        gemv, add, subtract, multiply = self.ones.dot, np.add, np.subtract, np.multiply
        less, add_reduce, copyto, bincount = np.less, np.add.reduce, np.copyto, np.bincount
        betas, sigma2s = [], []
        for (s0, s1, s2), xty_dt, lu_beta, dmu, d, d_col, y_dt, half_d2t, lu_eps, acc, g in zip(
                d_beta.tolist(), xty_d, log_u[:, 0].tolist(), dmu_beta, d_eps, d_cols, y_d,
                half_d2, log_u[:, 1:], accepted, gammas):
            add(mu, dmu, mu_p)
            sp_of(mu_p, sp_out)
            if tall:
                gemv(sp, s_p)
            total, total_p = add_reduce(sums, 1, None, totals).tolist()
            dll = xty_dt - (total_p - total)
            p0, p1, p2 = b0 + s0, b1 + s1, b2 + s2
            # the prior delta in Python floats
            dpr = (((b0 - m0) * (b0 - m0) - (p0 - m0) * (p0 - m0)) / v0
                   + ((b1 - m1) * (b1 - m1) - (p1 - m1) * (p1 - m1)) / v1
                   + ((b2 - m2) * (b2 - m2) - (p2 - m2) * (p2 - m2)) / v2)
            if lu_beta < dll + dpr:
                b0, b1, b2 = p0, p1, p2
                mu[...] = mu_p
                s[...] = s_p
                self.acc_b += 1

            add(mu, d_col, mu_p)
            sp_of(mu_p, sp_out)
            if tall:
                gemv(sp, s_p)
            subtract(s_p, s, col_tmp)
            # an overflow column's change adds to its owner's
            subtract(y_dt, bincount(owner, col_tmp, n_ind) if fold else col_tmp, dll_eps)
            # (eps^2 - eps_p^2) / (2 sigma2) = -(eps*d + d^2/2) / sigma2
            multiply(eps, d, ind_tmp)
            add(ind_tmp, half_d2t, ind_tmp)
            multiply(ind_tmp, 1.0 / sigma2, ind_tmp)
            subtract(dll_eps, ind_tmp, dll_eps)
            less(lu_eps, dll_eps, acc)
            # an accepted step adds d, a rejected one 0, which leaves every bit
            multiply(d, acc, ind_tmp)
            add(eps, ind_tmp, eps)
            add(mu, ind_tmp[owner] if fold else ind_tmp, mu)
            copyto(s, s_p, where=acc[owner] if fold else acc)
            sigma2 = _draw_sigma2(sigma2_scale, eps, g)
            betas.append([b0, b1, b2])
            sigma2s.append(sigma2)

        self.beta, self.sigma2 = np.array([b0, b1, b2]), sigma2
        self.acc_e += accepted.sum(axis=0)
        return np.array(betas), np.array(sigma2s)

    def adapt(self, beta_hist: np.ndarray) -> None:
        """Tune the proposal at the end of a burn-in window, given the beta
        draws so far, then clear the tallies.

        The window's acceptance rates nudge the log scales toward the
        optimal-scaling targets 0.234 (block) and 0.44 (scalar) by
        0.1/sqrt(window). From _COV_START draws on, the beta proposal is the
        Cholesky factor of the trailing half's covariance plus jitter, and at
        _COV_START its log scale restarts at log(2.38/sqrt(3)). Each eps scale
        is an adapted multiple of 1/sqrt(1/sigma2 + sum_j p_ij(1-p_ij)), the
        conditional sd, usable whether sigma2 is diffuse or near zero; p_ij
        is `model.expit` of the mu cells, finite and warning-free.
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
        p = expit(self.mus[0]).reshape(self.grid)
        p *= 1.0 - p  # summed down each individual's cells in time order
        fisher = np.bincount(np.repeat(self.owner, self.grid[0]), p.T.ravel(), self.n_ind)
        self.eps_scales = np.exp(self.eps_log_mult) * (1.0 / np.sqrt(1.0 / self.sigma2 + fisher))
        self.acc_b, self.acc_e = 0, np.zeros(self.n_ind)


def metropolis_sweep(data: PanelDataset, state: ParameterState, priors: PriorSet,
                     rng: np.random.Generator, *, beta_log_scale: float = 0.0,
                     eps_scales=1.0) -> ParameterState:
    """One fixed-scale sweep (beta block, eps scalars, sigma2 Gibbs).

    No adaptation happens here, so the sweep is a fixed Markov kernel that
    leaves the posterior invariant -- the building block for kernel
    validation harnesses.
    """
    chain = _Chain(data, priors, state)
    chain.log_scale = beta_log_scale
    chain.eps_scales = np.asarray(eps_scales, dtype=np.float64)
    chain.sweep(rng)
    return ParameterState(beta=chain.beta, epsilon=chain.eps, sigma2=chain.sigma2)


def initial_state(data: PanelDataset, priors: PriorSet) -> ParameterState:
    """Deterministic start: beta at prior means, eps at 0, sigma2 at the prior
    mean scale/(shape - 1) when shape > 1 and it is finite (not, say, under
    IG(1 + 2^-52, 1e300)), else 1. A diffuse IG(0.001, 0.001) has its mode
    near 0.001, a corner the sigma2 and eps steps climb out of only slowly."""
    beta = np.array([p.mean for p in priors.beta_priors])
    ig = priors.sigma2_prior
    sigma2 = ig.scale / (ig.shape - 1.0) if ig.shape > 1.0 else 1.0
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        sigma2 = 1.0
    return ParameterState(beta=beta, epsilon=np.zeros(data.n_individuals), sigma2=sigma2)


def _sample(chain: _Chain, seed: int, samples: int, thin: int):
    """One of `run_chain`'s two sampling segments, on the seed of its config's
    `derive(0)` or `derive(1)`: a copy of the burned-in `chain`, tallies
    cleared, runs samples*thin sweeps, keeping sweeps thin-1, 2*thin-1, ...;
    returns the kept beta and sigma2 and the tallies. `chain` stays as it
    was, for the other segment and a pool's pickle."""
    chain = copy.deepcopy(chain)
    chain.acc_b, chain.acc_e = 0, np.zeros(chain.n_ind)
    rng = np.random.default_rng(seed)
    n_post = samples * thin
    kept_beta, kept_sigma2 = [], []
    for start in range(0, n_post, _ADAPT_WINDOW):
        betas, sigma2s = chain.sweep(rng, min(_ADAPT_WINDOW, n_post - start))
        # draw k is sweep k*thin + thin-1
        first = (thin - 1 - start) % thin
        kept_beta.append(betas[first::thin])
        kept_sigma2.append(sigma2s[first::thin])
    return np.concatenate(kept_beta), np.concatenate(kept_sigma2), chain.acc_b, chain.acc_e


def run_chain(data: PanelDataset, priors: PriorSet, config: ChainConfig,
              pool=InParent()) -> PosteriorSamples:
    """Adapt the proposals over burn_in sweeps, then freeze them and run
    samples*thin, keeping every thin-th draw, from a fixed Markov kernel.

    One `_Chain` runs the burn-in on the seed of `config.derive()`, tuned
    after each full _ADAPT_WINDOW sweeps. This process then runs a copy of
    it for ceil(samples/2) draws on the seed of `config.derive(0)`, and
    `pool` (`workers.worker_pool`; by default this process) another for the
    rest, kept after them, on that of `config.derive(1)`. Two segments, not
    the CPU count, so a seed gives the same draws on any machine; they
    share no state, so the pool never changes a draw.

    The chain starts at `initial_state`; a start whose log likelihood is not
    finite, as when a prior mean or a covariate overflows mu, raises
    FloatingPointError before any sweep. No prior density is evaluated: the
    sweep accepts on differences and draws sigma2 from its conjugate IG."""
    state = initial_state(data, priors)
    with np.errstate(invalid="ignore"):
        if not math.isfinite(log_likelihood(data, state)):
            raise FloatingPointError("log likelihood is not finite at the initial state")
    chain, rng = _Chain(data, priors, state), np.random.default_rng(config.derive().seed)
    beta_hist = np.empty((config.burn_in, 3))
    for start in range(0, config.burn_in, _ADAPT_WINDOW):
        stop = min(start + _ADAPT_WINDOW, config.burn_in)
        beta_hist[start:stop] = chain.sweep(rng, stop - start)[0]
        if stop % _ADAPT_WINDOW == 0:
            chain.adapt(beta_hist[:stop])
    del beta_hist  # ChainConfig bounds it and the kept draws each, not their sum
    first = (config.samples + 1) // 2
    second = pool.submit(_sample, chain, config.derive(1).seed, config.samples - first, config.thin)
    betas, sigma2s, acc_b, acc_e = zip(_sample(chain, config.derive(0).seed, first, config.thin),
                                       second.result())
    n_post = config.samples * config.thin
    return PosteriorSamples(
        beta=np.concatenate(betas),
        sigma2=np.concatenate(sigma2s),
        accept_beta=sum(acc_b) / n_post,
        accept_epsilon=sum(acc_e) / n_post,
    )


def draws_to_csv(samples: PosteriorSamples, path: str) -> None:
    """Write kept draws as long-form rows `iteration,parameter,value`, four
    per draw, each draw's four through one template.

    A rejected beta proposal repeats the row before it bit for bit, so each
    run of repeated beta rows is formatted once: a row is fresh when its
    int64 bits differ from the previous row's (as floats, -0.0 == 0.0 would
    print the wrong zero), and only fresh rows go through repr."""
    beta = np.ascontiguousarray(samples.beta, dtype=np.float64)
    bits = beta.view(np.int64)
    fresh = np.ones(len(beta), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=fresh[1:])
    reprs = np.array(list(map(repr, beta[fresh].ravel().tolist())), dtype=object).reshape(-1, 3)
    row = "{0},beta0,{1}\n{0},beta1,{2}\n{0},beta2,{3}\n{0},sigma2,{4}\n".format
    text = "".join(map(row, range(1, samples.n_kept + 1), *reprs[np.cumsum(fresh) - 1].T.tolist(),
                       samples.sigma2.tolist()))
    write_csv(path, ["iteration", "parameter", "value"], text)
