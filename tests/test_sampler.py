import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from panelbayes.errors import SamplerError
from panelbayes.model import PanelDataset, ParameterState, softplus
from panelbayes.priors import InverseGammaPrior, NormalPrior, PriorSet, default_uninformative
from panelbayes.sampler import (ChainConfig, PosteriorSamples, _chain_stats, _Kernel,
                                adapt_scale, draws_to_csv, effective_sample_size, gibbs_sigma2,
                                metropolis_sweep, run_chain, summarize)


def empty_panel():
    return PanelDataset([], [], [], [], [])


def tiny_panel():
    return PanelDataset([1, 1, 1, 2, 2, 2], [1, 2, 3, 1, 2, 3],
                        [1, 0, 1, 0, 0, 1],
                        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                        [0.2, 0.5, -0.1, 0.4, 0.0, 0.3])


def synthetic_samples(beta0_chain):
    n = len(beta0_chain)
    beta = np.column_stack([np.asarray(beta0_chain, float), np.zeros(n), np.ones(n)])
    return PosteriorSamples(beta=beta, sigma2=np.ones(n),
                            accept_beta=0.25, accept_epsilon=np.zeros(0))


class TestAdaptScale:
    def test_fixed_point(self):
        assert adapt_scale(0.7, 0.44, 0.44, 0.1) == 0.7

    def test_full_acceptance(self):
        assert adapt_scale(0.0, 1.0, 0.44, 0.1) == pytest.approx(0.056, abs=1e-15)

    def test_zero_acceptance(self):
        assert adapt_scale(0.0, 0.0, 0.44, 0.1) == pytest.approx(-0.044, abs=1e-15)

    def test_monotone(self):
        up = adapt_scale(0.0, 0.9, 0.44, 0.1)
        down = adapt_scale(0.0, 0.1, 0.44, 0.1)
        assert up > 0.0 > down

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            adapt_scale(0.0, 1.5, 0.44, 0.1)


class TestGibbsSigma2:
    def test_zero_epsilon_forced_parameters(self):
        # eps = 0 over 10 individuals with IG(0.001, 0.001): draws ~ IG(5.001, 0.001)
        rng = np.random.default_rng(123)
        prior = InverseGammaPrior(0.001, 0.001)
        draws = np.array([gibbs_sigma2(np.zeros(10), prior, rng) for _ in range(5000)])
        assert (draws > 0).all()
        ks = sps.kstest(draws, sps.invgamma(5.001, scale=0.001).cdf)
        assert ks.pvalue > 0.01

    def test_shape_scale_arithmetic(self):
        # eps=(1,1), IG(2,1) -> IG(3,2): check via the analytic mean of many draws
        rng = np.random.default_rng(7)
        draws = np.array([gibbs_sigma2(np.array([1.0, 1.0]), InverseGammaPrior(2.0, 1.0), rng)
                          for _ in range(10 ** 4)])
        analytic_mean = 2.0 / (3.0 - 1.0)
        analytic_sd = math.sqrt(2.0 ** 2 / ((3.0 - 1.0) ** 2 * (3.0 - 2.0)))
        assert abs(draws.mean() - analytic_mean) < 3 * analytic_sd / math.sqrt(len(draws))

    def test_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert gibbs_sigma2(np.array([0.5, -2.0]), InverseGammaPrior(2.0, 1.0), rng) > 0


class TestSummaries:
    def test_constant_chain(self):
        s = _chain_stats(np.full(50, 3.25))
        assert s.mean == 3.25
        assert s.sd == 0.0
        assert (s.lower, s.upper) == (3.25, 3.25)
        assert s.ess == 50.0

    def test_alternating_chain_mean(self):
        s = _chain_stats(np.tile([0.0, 1.0], 500))
        assert s.mean == pytest.approx(0.5)

    def test_iid_normal_chain(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=10 ** 5)
        s = _chain_stats(x)
        assert abs(s.mean) < 0.02
        assert abs(s.sd - 1.0) < 0.02
        assert abs(s.ess - len(x)) / len(x) < 0.2

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            _chain_stats(np.array([1.0]))

    def test_ess_of_correlated_chain_smaller(self):
        rng = np.random.default_rng(9)
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        for t in range(1, n):  # AR(1), rho = 0.9: true ESS ratio = 0.1/1.9
            x[t] = 0.9 * x[t - 1] + rng.normal()
        ess = effective_sample_size(x)
        assert ess < 0.15 * n
        assert ess > 0.01 * n

    def test_summarize_reports_sigma(self):
        s = run_chain(tiny_panel(), default_uninformative(),
                      ChainConfig(burn_in=200, samples=300, seed=3))
        stats = summarize(s)
        assert set(stats) == {"beta0", "beta1", "beta2", "sigma"}
        assert stats["sigma"].mean == pytest.approx(float(np.sqrt(s.sigma2).mean()))


class TestRunChain:
    def test_deterministic(self):
        cfg = ChainConfig(burn_in=300, samples=400, seed=99)
        a = run_chain(tiny_panel(), default_uninformative(), cfg)
        b = run_chain(tiny_panel(), default_uninformative(), cfg)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert a.accept_beta == b.accept_beta

    def test_seed_changes_output(self):
        a = run_chain(tiny_panel(), default_uninformative(), ChainConfig(burn_in=300, samples=400, seed=1))
        b = run_chain(tiny_panel(), default_uninformative(), ChainConfig(burn_in=300, samples=400, seed=2))
        assert not np.array_equal(a.beta, b.beta)

    def test_thinning_and_counts(self):
        s = run_chain(tiny_panel(), default_uninformative(),
                      ChainConfig(burn_in=100, samples=50, thin=4, seed=5))
        assert s.n_kept == 50
        assert s.beta.shape == (50, 3)

    def test_sigma2_positive_and_rates_bounded(self):
        s = run_chain(tiny_panel(), default_uninformative(),
                      ChainConfig(burn_in=200, samples=500, seed=21))
        assert (s.sigma2 > 0).all()
        assert 0.0 <= s.accept_beta <= 1.0
        assert ((s.accept_epsilon >= 0) & (s.accept_epsilon <= 1)).all()

    def test_non_finite_start_raises(self):
        bad = PriorSet(beta_priors=(NormalPrior(float("inf"), 1.0), NormalPrior(0, 1), NormalPrior(0, 1)),
                       sigma2_prior=InverseGammaPrior(2.0, 1.0))
        with pytest.raises(SamplerError):
            run_chain(tiny_panel(), bad, ChainConfig(burn_in=10, samples=10, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(samples=0)
        with pytest.raises(ValueError):
            ChainConfig(thin=0)

    def test_no_data_samples_the_prior(self):
        # beta marginal must reproduce N(0,1) when there is no likelihood term
        priors = PriorSet(beta_priors=tuple(NormalPrior(0.0, 1.0) for _ in range(3)),
                          sigma2_prior=InverseGammaPrior(3.0, 2.0))
        s = run_chain(empty_panel(), priors, ChainConfig(burn_in=2000, samples=60000, seed=31))
        chain = s.beta[:, 0]
        ess = effective_sample_size(chain)
        assert ess >= 5000
        lag = max(1, int(np.ceil(2 * chain.size / ess)))
        thinned = chain[::lag]
        ks = sps.kstest(thinned, sps.norm(0.0, 1.0).cdf)
        assert ks.pvalue > 0.01


class TestMetropolisSweep:
    def test_moves_and_stays_valid(self):
        data = tiny_panel()
        priors = default_uninformative()
        rng = np.random.default_rng(17)
        state = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        for _ in range(50):
            state = metropolis_sweep(data, state, priors, rng,
                                     beta_log_scale=math.log(0.5))
            assert state.sigma2 > 0
        assert state.epsilon.shape == (2,)

    def test_deterministic_given_rng_state(self):
        data = tiny_panel()
        priors = default_uninformative()
        st = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        a = metropolis_sweep(data, st, priors, np.random.default_rng(5))
        b = metropolis_sweep(data, st, priors, np.random.default_rng(5))
        assert np.array_equal(a.beta, b.beta)
        assert a.sigma2 == b.sigma2


class TestSoftplus:
    def test_matches_logaddexp(self):
        x = np.linspace(-800.0, 800.0, 200001)
        ref = np.logaddexp(0.0, x)
        assert np.all(np.abs(softplus(x) - ref) <= 4 * np.spacing(ref))

    def test_finite_at_extremes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softplus(np.array([-1e308, 1e308]))
        assert np.array_equal(out, [0.0, 1e308])


class TestKernelCache:
    def test_carried_state_matches_recomputed(self):
        # ragged: individual i is observed 1 + i % 5 times
        rng = np.random.default_rng(31)
        counts = 1 + np.arange(40) % 5
        ind = np.repeat(np.arange(40), counts)
        time = np.concatenate([np.arange(1, c + 1) for c in counts])
        data = PanelDataset(ind, time, rng.integers(0, 2, ind.size),
                            rng.normal(0.0, 2.0, ind.size), rng.normal(0.0, 1.0, ind.size))
        kernel = _Kernel(data, default_uninformative())
        beta, eps, sigma2 = rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.5, 40), 2.0
        mu = kernel.mu(beta, eps)
        sp = softplus(mu)
        chol = np.linalg.cholesky([[1.0, 0.3, 0.1], [0.3, 0.5, 0.0], [0.1, 0.0, 0.8]])
        eps_scales = rng.uniform(0.5, 2.0, 40)
        acc_beta, acc_eps = 0, np.zeros(40)
        for _ in range(200):
            beta, eps, sigma2, mu, sp, acc_b, acc_e = kernel.sweep(
                beta, eps, sigma2, mu, sp, chol, math.log(0.3), eps_scales, rng)
            acc_beta += acc_b
            acc_eps += acc_e
        # both blocks accepted some moves and rejected others
        assert 0 < acc_beta < 200
        assert np.all(acc_eps > 0) and np.all(acc_eps < 200)
        assert np.array_equal(sp, softplus(mu))
        np.testing.assert_allclose(mu, kernel.mu(beta, eps), rtol=0.0, atol=1e-9)


def test_draws_csv_layout(tmp_path):
    s = run_chain(tiny_panel(), default_uninformative(),
                  ChainConfig(burn_in=20, samples=30, seed=1))
    path = tmp_path / "draws.csv"
    draws_to_csv(s, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,parameter,value"
    # 3 beta + 1 sigma2 rows per kept draw
    assert len(lines) - 1 == 30 * 4
    assert [line.split(",")[1] for line in lines[1:5]] == ["beta0", "beta1", "beta2", "sigma2"]
