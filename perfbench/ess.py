"""The benchmark's own effective-sample-size estimator.

The headline mixing numbers must not move when the program changes its own
ESS estimator, so the benchmark never calls `sampler.effective_sample_size`.
This is Geyer's (1992) initial monotone sequence estimator for one chain: the
autocorrelations are summed in adjacent pairs, the sum stops at the first
pair that is not positive, and the pair sums are forced to be non-increasing.
"""

from __future__ import annotations

import math

import numpy as np


def ess(chain) -> float:
    """Effective sample size of one chain, capped at n*log10(n)."""
    x = np.asarray(chain, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 draws")
    if x.min() == x.max():
        return 1.0  # a chain that never moved carries one draw's information
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * f.conjugate(), m)[:n]
    rho = acov / acov[0]
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[:nonpos[0]] if nonpos.size else pairs
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return n / max(tau, 1.0 / math.log10(n))


def min_ess(beta: np.ndarray, sigma2: np.ndarray) -> float:
    """Minimum ESS over beta0, beta1, beta2 and sigma = sqrt(sigma2)."""
    chains = [beta[:, k] for k in range(3)] + [np.sqrt(sigma2)]
    return min(ess(c) for c in chains)
