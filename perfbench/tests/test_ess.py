"""The benchmark's ESS estimator against chains whose ESS is known."""

import numpy as np
import pytest

from perfbench.ess import ess, min_ess


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chain x_t = phi*x_{t-1} + e_t with unit-variance noise."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, 0.99])
def test_ar1_matches_known_ess(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert ess(ar1(phi, n, seed=11)) == pytest.approx(expected, rel=0.1)


def test_constant_chain_counts_as_one_draw():
    assert ess(np.full(1000, 0.3)) == 1.0


def test_min_ess_takes_the_worst_parameter():
    n = 50_000
    beta = np.column_stack([ar1(0.0, n, 1), ar1(0.5, n, 2), ar1(0.0, n, 3)])
    sigma2 = (2.0 + 0.1 * ar1(0.9, n, 4)) ** 2
    assert min_ess(beta, sigma2) == pytest.approx(ess(np.sqrt(sigma2)))
    assert min_ess(beta, sigma2) < ess(beta[:, 1]) < ess(beta[:, 0])


def test_too_short_chain_is_rejected():
    with pytest.raises(ValueError):
        ess([1.0, 2.0, 3.0])
