import math

import numpy as np
import pytest
from scipy import stats as sps

from panelbayes.priors import (InverseGammaPrior, NormalPrior, PriorSet, default_uninformative,
                               fit_invgamma, fit_normal, load_priors, posterior_to_priorset,
                               save_priors)
from panelbayes.sampler import PosteriorSamples


def fake_samples(beta, sigma2):
    beta = np.asarray(beta, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    return PosteriorSamples(beta=beta, sigma2=sigma2,
                            accept_beta=0.3, accept_epsilon=np.zeros(0))


def test_default_uninformative():
    ps = default_uninformative()
    for p in ps.beta_priors:
        assert p.mean == 0.0
        assert p.variance == 10000.0
    assert ps.sigma2_prior.shape == 0.001
    assert ps.sigma2_prior.scale == 0.001


def test_prior_invariants_enforced():
    with pytest.raises(ValueError):
        NormalPrior(0.0, 0.0)
    with pytest.raises(ValueError):
        InverseGammaPrior(-1.0, 1.0)
    with pytest.raises(ValueError):
        PriorSet(beta_priors=(NormalPrior(0, 1), NormalPrior(0, 1)),
                 sigma2_prior=InverseGammaPrior(1, 1))


def test_non_finite_prior_parameters_rejected():
    # a mean may be anything: the chain's start check refuses one that is not finite
    with pytest.raises(ValueError, match="variance must be positive and finite"):
        NormalPrior(0.0, math.inf)
    for shape, scale in [(math.inf, 1.0), (2.0, math.inf)]:
        with pytest.raises(ValueError, match="shape and scale must be positive and finite"):
            InverseGammaPrior(shape, scale)


class TestFitNormal:
    def test_two_points(self):
        p = fit_normal([0.0, 2.0])
        assert p.mean == 1.0
        assert p.variance == 2.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_normal([3.0, 3.0, 3.0])
        with pytest.raises(ValueError):
            fit_normal([1.0])

    def test_variance_floor(self):
        p = fit_normal([1.0, 1.0 + 1e-9])
        assert p.variance == 1e-8

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(91)
        draws = rng.normal(-1.0, 0.2, size=10 ** 5)
        p = fit_normal(draws)
        assert abs(p.mean - (-1.0)) < 0.01
        assert abs(p.variance - 0.04) < 0.004


class TestFitInvGamma:
    def exact_sample(self, m, v):
        # two points with exact mean m and ddof-1 variance v
        h = math.sqrt(v / 2.0)
        return [m - h, m + h]

    def test_moment_inversion(self):
        p = fit_invgamma(self.exact_sample(1.0, 0.5))
        assert p.shape == pytest.approx(4.0, abs=1e-12)
        assert p.scale == pytest.approx(3.0, abs=1e-12)
        # IG(4,3): mean 3/(4-1)=1, variance 9/(9*2)=0.5
        assert p.scale / (p.shape - 1) == pytest.approx(1.0)
        assert p.scale ** 2 / ((p.shape - 1) ** 2 * (p.shape - 2)) == pytest.approx(0.5)

    def test_second_inversion(self):
        p = fit_invgamma(self.exact_sample(2.0, 1.0))
        assert p.shape == pytest.approx(6.0, abs=1e-12)
        assert p.scale == pytest.approx(10.0, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_invgamma([1.0])

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            fit_invgamma([1.0, -0.5])
        with pytest.raises(ValueError):
            fit_invgamma([1.0, 1.0])

    def test_round_trip_monte_carlo(self):
        draws = sps.invgamma(4.0, scale=3.0).rvs(size=10 ** 5, random_state=77)
        p = fit_invgamma(draws)
        assert abs(p.shape - 4.0) / 4.0 < 0.05


class TestPosteriorToPriorset:
    def test_invariants_hold(self):
        rng = np.random.default_rng(2)
        s = fake_samples(rng.normal(size=(200, 3)), rng.gamma(3.0, 1.0, size=200))
        ps = posterior_to_priorset(s)
        assert len(ps.beta_priors) == 3
        assert ps.sigma2_prior.shape > 0

    def test_known_chain_recovery(self):
        rng = np.random.default_rng(8)
        n = 10 ** 5
        beta = np.column_stack([rng.normal(0, 1, n), rng.normal(1.0, 0.1, n),
                                rng.normal(-2.0, 0.5, n)])
        sigma2 = sps.invgamma(4.0, scale=3.0).rvs(size=n, random_state=3)
        ps = posterior_to_priorset(fake_samples(beta, sigma2))
        assert abs(ps.beta_priors[1].mean - 1.0) < 0.01
        assert abs(ps.beta_priors[1].variance - 0.01) < 0.001
        assert abs(ps.sigma2_prior.shape - 4.0) / 4.0 < 0.05

    def test_permutation_invariant(self):
        rng = np.random.default_rng(14)
        beta = rng.normal(size=(500, 3))
        sigma2 = rng.gamma(3.0, 1.0, size=500)
        ps1 = posterior_to_priorset(fake_samples(beta, sigma2))
        perm = rng.permutation(500)
        ps2 = posterior_to_priorset(fake_samples(beta[perm], sigma2[perm]))
        for a, b in zip(ps1.beta_priors, ps2.beta_priors):
            assert a.mean == pytest.approx(b.mean, abs=1e-12)
            assert a.variance == pytest.approx(b.variance, abs=1e-12)
        assert ps1.sigma2_prior.shape == pytest.approx(ps2.sigma2_prior.shape, abs=1e-9)

    def test_missing_chain_rejected(self):
        with pytest.raises(ValueError):
            posterior_to_priorset(fake_samples(np.zeros((10, 2)), np.ones(10)))

    def test_empty_sigma2_chain_rejected(self):
        with pytest.raises(ValueError, match="a sigma2 chain"):
            posterior_to_priorset(fake_samples(np.zeros((0, 3)), []))

    @pytest.mark.parametrize("name", ["beta0", "beta1", "beta2", "sigma2"])
    def test_degenerate_chain_is_named(self, name):
        rng = np.random.default_rng(5)
        beta, sigma2 = rng.normal(size=(50, 3)), rng.gamma(3.0, 1.0, size=50)
        if name == "sigma2":
            sigma2[:] = 1.5
        else:
            beta[:, int(name[-1])] = 0.25
        with pytest.raises(ValueError, match=f"cannot carry {name} forward: degenerate sample"):
            posterior_to_priorset(fake_samples(beta, sigma2))


def test_priorset_file_round_trip(tmp_path):
    ps = PriorSet(
        beta_priors=(NormalPrior(-1.0682315, 0.0241), NormalPrior(0.93, 0.002),
                     NormalPrior(1.5e-3, 1.2e-6)),
        sigma2_prior=InverseGammaPrior(4.25, 3.75),
    )
    path = tmp_path / "priors.kv"
    save_priors(ps, str(path))
    back = load_priors(str(path))
    for a, b in zip(ps.beta_priors, back.beta_priors):
        assert a.mean == b.mean
        assert a.variance == b.variance
    assert back.sigma2_prior.shape == ps.sigma2_prior.shape
    assert back.sigma2_prior.scale == ps.sigma2_prior.scale


def test_priors_file_errors(tmp_path):
    from panelbayes.errors import ConfigError
    bad = tmp_path / "bad.kv"
    bad.write_text("beta0.mean = 0.0\nbogus line without equals\n")
    with pytest.raises(ConfigError, match="bad.kv:2"):
        load_priors(str(bad))
    missing_key = tmp_path / "partial.kv"
    missing_key.write_text("beta0.mean = 0.0\n")
    with pytest.raises(ConfigError, match="beta0.variance"):
        load_priors(str(missing_key))


def test_unknown_key_in_priors_file_rejected(tmp_path):
    from panelbayes.errors import ConfigError
    path = tmp_path / "priors.kv"
    save_priors(default_uninformative(), str(path))
    path.write_text(path.read_text() + "sigma.shape = 50\n")
    with pytest.raises(ConfigError, match=r"priors\.kv: unknown key 'sigma\.shape'"):
        load_priors(str(path))
