"""The posterior oracle of criterion 10 (`posterior_oracle`) against brute
force: its AGHQ marginal likelihood against a dense 1-d quadrature of each
individual's integral over eps, on a small ragged panel."""

import math

import numpy as np
import pytest

import posterior_oracle as oracle

# four individuals with 1, 2, 4 and 6 rows; the last has every y = 1
CODES = np.repeat(np.arange(4), [1, 2, 4, 6])
RNG = np.random.default_rng(20)
Y = np.r_[RNG.integers(0, 2, 7), np.ones(6)]
X1, X2 = RNG.normal(size=13), RNG.normal(size=13)


def brute_force_log_marginal(theta) -> float:
    """sum_i log of the integral of p(y_i | beta, eps) N(eps; 0, sigma2) over
    eps, each by a Riemann sum on 400 001 points over [-60, 60]."""
    beta, sigma2 = np.asarray(theta[:3]), math.exp(theta[3])
    grid = np.linspace(-60.0, 60.0, 400_001)
    eta = np.column_stack([np.ones(13), X1, X2]) @ beta
    total = 0.0
    for i in range(4):
        rows = CODES == i
        mu = eta[rows][:, None] + grid
        log_f = (-np.logaddexp(0.0, (1.0 - 2.0 * Y[rows])[:, None] * mu).sum(axis=0)
                 - grid ** 2 / (2.0 * sigma2) - 0.5 * math.log(2.0 * math.pi * sigma2))
        top = log_f.max()
        total += top + math.log(np.exp(log_f - top).sum() * (grid[1] - grid[0]))
    return total


# Q = 15 nodes are exact to 1e-6 at sigma2 <= 1, where criterion 10's
# posteriors lie; at sigma2 = 25 a 2-row individual's integrand is far from
# normal, and the error (1.8e-3) falls only with more nodes (1e-4 at Q = 30)
@pytest.mark.parametrize("theta, tol", [((-1.0, 1.0, 1.0, 0.0), 1e-6),
                                        ((0.5, -2.0, 0.3, math.log(0.01)), 1e-6),
                                        ((3.0, 0.0, -1.0, -1.0), 1e-6),
                                        ((-1.0, 1.0, 1.0, math.log(25.0)), 3e-3)])
def test_aghq_matches_brute_force_quadrature(theta, tol):
    p = oracle.panel(Y, X1, X2, CODES)
    assert oracle.log_marginal(np.array([theta]), p)[0] == pytest.approx(
        brute_force_log_marginal(theta), abs=tol)


def test_batched_rows_are_evaluated_alone():
    p = oracle.panel(Y, X1, X2, CODES)
    thetas = np.array([[-1.0, 1.0, 1.0, 0.0], [0.5, -2.0, 0.3, -4.0], [3.0, 0.0, -1.0, -1.0]])
    together = oracle.log_marginal(thetas, p)
    alone = [oracle.log_marginal(t[None], p)[0] for t in thetas]
    np.testing.assert_allclose(together, alone, rtol=0, atol=1e-12)


def test_extreme_theta_is_finite():
    p = oracle.panel(Y, X1, X2, CODES)
    thetas = np.array([[50.0, -50.0, 50.0, math.log(1e-8)], [-50.0, 50.0, -50.0, math.log(1e8)]])
    assert np.isfinite(oracle.log_marginal(thetas, p)).all()
