"""A posterior oracle for the random-effects logistic model, written apart
from panelbayes so that it cannot share the sampler's mistakes.

For theta = (beta0, beta1, beta2, log sigma2):

- `log_marginal` integrates each eps_i out of p(y | beta, sigma2) by
  adaptive Gauss-Hermite quadrature (AGHQ; Liu & Pierce 1994) with Q = 15
  nodes, placed at each individual's conditional mode and scaled by its
  curvature there;
- `log_posterior` adds the diffuse priors `fit` and `study` use, N(0, 10^4)
  on each beta and IG(0.001, 0.001) on sigma2, with the Jacobian of
  log sigma2;
- `posterior_moments` finds the mode with scipy's BFGS, takes a central
  finite-difference Hessian there, and importance-samples a multivariate t
  (nu = 5) at the mode, scaled by the inverse Hessian. It reports each
  posterior mean and SD of beta0, beta1, beta2 and sigma = sqrt(sigma2),
  with the importance-sampling standard error of the mean (SE_IS).

Each takes a `Panel`, which `panel` builds from plain arrays sorted by
individual.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import optimize, special, stats

NODES, WEIGHTS = np.polynomial.hermite.hermgauss(15)
LOG_WEIGHTS = np.log(WEIGHTS) + NODES ** 2  # the exp(-z^2) weight divided out
CELLS_PER_CHUNK = 500_000                   # batch size of theta x node x observation
DRAWS, DF = 4000, 5.0                       # importance draws, and the t proposal's nu


class Panel(NamedTuple):
    X: np.ndarray       # (n_obs, 3): 1, x1, x2
    sign: np.ndarray    # (n_obs,): 1 - 2y, so that log p(y | mu) = -log(1 + exp(sign * mu))
    codes: np.ndarray   # (n_obs,): the individual of each row, sorted
    starts: np.ndarray  # (I,): each individual's first row


class Moments(NamedTuple):
    mean: np.ndarray  # beta0, beta1, beta2, sigma
    sd: np.ndarray
    se: np.ndarray    # importance-sampling standard error of the mean
    kish_ess: float


def panel(y, x1, x2, codes) -> Panel:
    """The panel of rows (y, x1, x2), where `codes` numbers the individuals
    0..I-1 in sorted order, each with at least one row."""
    codes = np.asarray(codes)
    if codes[0] != 0 or not np.isin(np.diff(codes), (0, 1)).all():
        raise ValueError("codes must number the individuals 0..I-1 in sorted order")
    X = np.column_stack([np.ones(codes.size), x1, x2]).astype(np.float64)
    return Panel(X, 1.0 - 2.0 * np.asarray(y, dtype=np.float64), codes,
                 np.flatnonzero(np.r_[True, np.diff(codes) > 0]))


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), in place; exp overflows above 709.78."""
    if x.max() < 700.0:
        return np.log1p(np.exp(x, out=x), out=x)
    return np.logaddexp(0.0, x, out=x)


def _eps_modes(eta: np.ndarray, sigma2: np.ndarray, p: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Each individual's mode of log p(y_i | eta + eps) - eps^2 / (2 sigma2),
    and the negative second derivative there, for a (B, n_obs) batch of
    linear predictors: safeguarded Newton on the score, which is strictly
    decreasing and has its root in [-n_i sigma2, n_i sigma2]."""
    y = (1.0 - p.sign) / 2.0
    n_i = np.add.reduceat(np.ones(p.codes.size), p.starts)
    hi = n_i * sigma2[:, None]
    lo, eps = -hi, np.zeros_like(hi)
    for _ in range(200):
        q = special.expit(eta + eps[:, p.codes])
        score = np.add.reduceat(y - q, p.starts, axis=1) - eps / sigma2[:, None]
        curv = np.add.reduceat(q * (1.0 - q), p.starts, axis=1) + 1.0 / sigma2[:, None]
        lo, hi = np.where(score > 0.0, eps, lo), np.where(score > 0.0, hi, eps)
        delta, tol = score / curv, 1e-12 * (1.0 + np.abs(eps))
        done = (np.abs(delta) <= tol) | (hi - lo <= tol)
        if done.all():
            break
        # a Newton step that leaves the bracket bisects it instead
        step = eps + delta
        eps = np.where(done | ((step > lo) & (step < hi)), step, 0.5 * (lo + hi))
    else:
        raise ArithmeticError("the eps modes did not converge in 200 steps")
    q = special.expit(eta + eps[:, p.codes])
    return eps, np.add.reduceat(q * (1.0 - q), p.starts, axis=1) + 1.0 / sigma2[:, None]


def log_marginal(theta, p: Panel) -> np.ndarray:
    """log p(y | beta, sigma2) by AGHQ, for each row of a (B, 4) theta."""
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    chunk = max(1, CELLS_PER_CHUNK // (NODES.size * p.codes.size))
    out = np.empty(len(theta))
    for start in range(0, len(theta), chunk):
        t = theta[start:start + chunk]
        eta, sigma2 = t[:, :3] @ p.X.T, np.exp(t[:, 3])
        mode, curv = _eps_modes(eta, sigma2, p)
        scale = np.sqrt(2.0 / curv)
        eps = mode[:, None, :] + scale[:, None, :] * NODES[:, None]  # (B, Q, I)
        # sign * mu at each node, from each row's mu at the mode and its node spacing
        smu = (p.sign * scale[:, p.codes])[:, None, :] * NODES[:, None]
        smu += (p.sign * (eta + mode[:, p.codes]))[:, None, :]
        loglik = -np.add.reduceat(_softplus(smu), p.starts, axis=2)
        log_f = (loglik - eps ** 2 / (2.0 * sigma2[:, None, None])
                 - 0.5 * np.log(2.0 * math.pi * sigma2)[:, None, None])
        terms = LOG_WEIGHTS[None, :, None] + log_f
        top = terms.max(axis=1)
        out[start:start + chunk] = (np.log(scale) + top
                                    + np.log(np.exp(terms - top[:, None, :]).sum(axis=1))).sum(axis=1)
    return out


def log_posterior(theta, p: Panel) -> np.ndarray:
    """log p(theta | y) up to a constant, for each row of a (B, 4) theta."""
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    beta, log_s2 = theta[:, :3], theta[:, 3]
    prior = -0.5 * (beta ** 2).sum(axis=1) / 1e4 - 0.001 * log_s2 - 0.001 * np.exp(-log_s2)
    return log_marginal(theta, p) + prior


def _hessian(f, t, step=1e-3):
    """The central-difference Hessian of f, a batched function of theta, at t."""
    e = step * np.eye(len(t))
    pts = [t + a * e[k] + b * e[m] for k in range(len(t)) for m in range(len(t))
           for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    v = f(np.array(pts)).reshape(len(t), len(t), 4)
    return (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / (4.0 * step ** 2)


def _mode(f, start, step=1e-4):
    """The maximum of f by BFGS with central-difference gradients, in the
    coordinates u that the Hessian's diagonal at `start` scales to 1 (the
    Hessian there need not be negative definite), theta = start + C u."""
    root = np.diag(1.0 / np.sqrt(np.abs(np.diag(_hessian(f, start)))))

    def neg_and_grad(u):
        t = start + root @ u
        v = f(np.vstack([t, t + step * root.T, t - step * root.T]))
        return -v[0], -(v[1:5] - v[5:]) / (2.0 * step)

    return start + root @ optimize.minimize(neg_and_grad, np.zeros(4), jac=True, method="BFGS").x


def posterior_moments(p: Panel, seed: int) -> Moments:
    """Importance-sampled posterior moments of beta0, beta1, beta2 and sigma
    under `log_posterior`."""
    def f(t):
        return log_posterior(t, p)

    mode = _mode(f, np.zeros(4))
    proposal = stats.multivariate_t(loc=mode, shape=np.linalg.inv(-_hessian(f, mode)), df=DF)
    theta = proposal.rvs(size=DRAWS, random_state=np.random.default_rng(seed))
    log_w = f(theta) - proposal.logpdf(theta)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    g = np.column_stack([theta[:, :3], np.exp(0.5 * theta[:, 3])])
    mean = w @ g
    dev2 = (g - mean) ** 2
    return Moments(mean=mean, sd=np.sqrt(w @ dev2), se=np.sqrt((w ** 2) @ dev2),
                   kish_ess=float(1.0 / (w ** 2).sum()))
