import copy
import csv
import hashlib
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy import special, stats as sps

from panelbayes import sampler
from panelbayes.model import PanelDataset, ParameterState, expit, log_likelihood, softplus
from panelbayes.priors import InverseGammaPrior, NormalPrior, PriorSet, default_uninformative
from panelbayes.sampler import (_ADAPT_WINDOW, _COV_JITTER, _COV_START, _TARGET_ACCEPT_BLOCK,
                                _TARGET_ACCEPT_SCALAR, ChainConfig, PosteriorSamples, _Chain,
                                _chain_stats, draws_to_csv, effective_sample_size, gibbs_sigma2,
                                initial_state, metropolis_sweep, run_chain, summarize)
from panelbayes.spindex import DEFAULT_SPLIT_YEAR, load_returns, series_to_panel, surrogate_path
from panelbayes.workers import InParent, worker_pool


def empty_panel():
    return PanelDataset([], [], [], [], [])


def tiny_panel():
    return PanelDataset([1, 1, 1, 2, 2, 2], [1, 2, 3, 1, 2, 3],
                        [1, 0, 1, 0, 0, 1],
                        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                        [0.2, 0.5, -0.1, 0.4, 0.0, 0.3])


def ragged_panel(rng, n_ind=40):
    """Individual i is observed 1 + i % 5 times."""
    counts = 1 + np.arange(n_ind) % 5
    ind = np.repeat(np.arange(n_ind), counts)
    time = np.concatenate([np.arange(1, c + 1) for c in counts])
    return PanelDataset(ind, time, rng.integers(0, 2, ind.size),
                        rng.normal(0.0, 2.0, ind.size), rng.normal(0.0, 1.0, ind.size))


def staggered_panel(rng, n_ind=100, periods=12):
    """Individual i enters at a random period and stays to the last."""
    entry = rng.integers(1, periods + 1, n_ind)
    ind = np.repeat(np.arange(n_ind), periods + 1 - entry)
    time = np.concatenate([np.arange(e, periods + 1) for e in entry])
    return PanelDataset(ind, time, rng.integers(0, 2, ind.size),
                        rng.normal(0.0, 2.0, ind.size), rng.normal(0.0, 1.0, ind.size))


def long_beside_singles(rng, long=200, singles=400):
    """One individual observed `long` times beside `singles` observed once."""
    counts = np.r_[long, np.ones(singles, dtype=int)]
    ind = np.repeat(np.arange(counts.size), counts)
    time = np.concatenate([np.arange(1, c + 1) for c in counts])
    return PanelDataset(ind, time, rng.integers(0, 2, ind.size),
                        rng.normal(0.0, 2.0, ind.size), rng.normal(0.0, 1.0, ind.size))


def observed(chain, data):
    """The chain's mu cell of each observation, in observation order, and
    the mask of its padding cells, through the grid `_Chain` builds."""
    _, cells, _ = sampler._grid(data.codes, data.n_individuals)
    pad = np.ones(chain.mus[0].size, dtype=bool)
    pad[cells] = False
    return chain.mus[0].reshape(-1)[cells], pad


def check_sums(chain, data, form):
    """Each column sum S of the state is the gemv sum of its cells' softplus
    in `form`, the one its windows took, bit for bit; padding is -inf in the
    state and the spare; each individual's S is the sum of `model.softplus`
    over its observations; and sum(S) - y.mu = -log_likelihood."""
    h, c = chain.grid
    S = chain.sums[0]
    assert np.all(np.isfinite(S))
    assert np.array_equal(S, np.dot(np.ones(h), form(chain.mus[0].reshape(h, c))))
    mu, pad = observed(chain, data)
    assert np.all(chain.mus.reshape(2, -1)[:, pad] == -np.inf)
    per_ind = np.bincount(chain.owner, S, data.n_individuals)
    np.testing.assert_allclose(per_ind, np.bincount(data.codes, softplus(mu), data.n_individuals),
                               rtol=1e-13, atol=0.0)
    state = ParameterState(beta=chain.beta, epsilon=chain.eps, sigma2=chain.sigma2)
    assert per_ind.sum() - data.y @ mu == pytest.approx(-log_likelihood(data, state), rel=1e-12)
    return mu


def assert_same_chain(a, b):
    """Every attribute of chain `b` holds what `a`'s does, bit for bit."""
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            other = vars(b)[name]
            assert (value.shape, value.tobytes()) == (other.shape, other.tobytes()), name
        else:
            assert value == vars(b)[name], name


class SnapshotPool(InParent):
    """Runs each submitted segment in this process when its result is asked
    for, after the parent's own segment, as `worker_pool(0)` does; records
    each chain it is sent with a copy of it taken at submit."""

    def __init__(self):
        self.chains = []

    def submit(self, fn, chain, *args):
        self.chains.append((copy.deepcopy(chain), chain))
        return super().submit(fn, chain, *args)


def burned_in_chain():
    """The chain `run_chain` sends its pool after 537 burn-in sweeps on a
    ragged panel, past _COV_START and a last partial window."""
    pool = SnapshotPool()
    run_chain(ragged_panel(np.random.default_rng(8)), default_uninformative(),
              ChainConfig(burn_in=537, samples=20, seed=4), pool)
    return pool.chains[0][1]


def sha256(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def synthetic_samples(beta0_chain):
    n = len(beta0_chain)
    beta = np.column_stack([np.asarray(beta0_chain, float), np.zeros(n), np.ones(n)])
    return PosteriorSamples(beta=beta, sigma2=np.ones(n),
                            accept_beta=0.25, accept_epsilon=np.zeros(0))


def three_individual_panel():
    return PanelDataset([1, 1, 2, 2, 3, 3], [1, 2, 1, 2, 1, 2], [1, 0, 0, 0, 1, 1],
                        [1.0, 1.0, 0.0, 0.0, 0.5, 0.5], [0.2, -0.3, 0.4, 0.1, 0.0, 0.6])


def fixed_scale_chain(data, priors, state, log_scale, eps_scales):
    """A `_Chain` at `state` whose proposal has these scales."""
    chain = _Chain(data, priors, state)
    chain.log_scale, chain.eps_scales = log_scale, eps_scales
    return chain


def three_individual_chain(log_scale=0.0):
    data, priors = three_individual_panel(), default_uninformative()
    return fixed_scale_chain(data, priors, initial_state(data, priors), log_scale, np.ones(3))


def adapted(acc_b, acc_e, windows=1, log_scale=0.7):
    """A three-individual chain after one adapt() call at the end of burn-in
    window `windows`, with the given window acceptance counts; returns the
    moves of the beta log scale and of the eps log multiples."""
    chain = three_individual_chain(log_scale=log_scale)
    chain.acc_b, chain.acc_e = acc_b, np.asarray(acc_e, float)
    chain.adapt(np.zeros((windows * _ADAPT_WINDOW, 3)))
    # below the covariance start the beta proposal keeps its identity factor
    assert np.array_equal(chain.chol, np.eye(3))
    return chain.log_scale - log_scale, chain.eps_log_mult - math.log(2.4)


class TestAdaptScale:
    def test_fixed_point(self):
        for windows in (1, 4):
            move_b, move_e = adapted(_TARGET_ACCEPT_BLOCK * _ADAPT_WINDOW,
                                     np.full(3, _TARGET_ACCEPT_SCALAR * _ADAPT_WINDOW), windows)
            assert move_b == 0.0
            assert np.array_equal(move_e, np.zeros(3))

    def test_full_acceptance(self):
        move_b, move_e = adapted(_ADAPT_WINDOW, np.full(3, _ADAPT_WINDOW))
        assert move_b == pytest.approx(0.0766, abs=1e-15)
        assert move_e == pytest.approx(np.full(3, 0.056), abs=1e-15)

    def test_zero_acceptance(self):
        move_b, move_e = adapted(0, np.zeros(3))
        assert move_b == pytest.approx(-0.0234, abs=1e-15)
        assert move_e == pytest.approx(np.full(3, -0.044), abs=1e-15)

    def test_monotone(self):
        # the step shrinks as 0.1/sqrt(window): window 4 moves by half of window 1
        windows = 4
        step = 0.1 / math.sqrt(windows)
        moves = []
        for acc_b in (40, _TARGET_ACCEPT_BLOCK * _ADAPT_WINDOW, 0):
            move_b, move_e = adapted(acc_b, [40.0, _TARGET_ACCEPT_SCALAR * _ADAPT_WINDOW, 5.0],
                                     windows)
            moves.append(move_b)
            assert move_b == pytest.approx(
                step * (acc_b / _ADAPT_WINDOW - _TARGET_ACCEPT_BLOCK), abs=1e-15)
            assert move_e == pytest.approx(
                step * (np.array([0.8, 0.44, 0.1]) - _TARGET_ACCEPT_SCALAR), abs=1e-15)
            assert move_e[0] > move_e[1] == 0.0 > move_e[2]
        assert moves[0] > moves[1] == 0.0 > moves[2]


class TestChainAdapt:
    def test_eps_scales_are_multiples_of_the_conditional_sd(self):
        chain = three_individual_chain()
        chain.adapt(np.zeros((_ADAPT_WINDOW, 3)))
        data = three_individual_panel()
        p = special.expit(observed(chain, data)[0])
        fisher = np.bincount(data.codes, weights=p * (1.0 - p))
        cond_sd = 1.0 / np.sqrt(1.0 / chain.sigma2 + fisher)
        assert chain.eps_scales == pytest.approx(np.exp(chain.eps_log_mult) * cond_sd, rel=1e-14)

    def test_covariance_switch_at_cov_start(self):
        rng = np.random.default_rng(5)
        hist = rng.standard_normal((_COV_START + _ADAPT_WINDOW, 3)) @ np.array(
            [[1.0, 0.5, 0.0], [0.0, 2.0, -0.3], [0.0, 0.0, 0.4]])

        def trailing_half_chol(h):
            n = len(h)
            return np.linalg.cholesky(np.cov(h[n // 2:].T) + _COV_JITTER * np.eye(3))

        chain = three_individual_chain(log_scale=-3.0)
        chain.acc_b = _ADAPT_WINDOW
        chain.adapt(hist[:_COV_START])
        assert np.allclose(chain.chol, trailing_half_chol(hist[:_COV_START]), rtol=1e-12)
        assert chain.log_scale == math.log(2.38 / math.sqrt(3.0))
        # later windows refresh the factor and nudge the scale without resetting it
        chain.acc_b = _ADAPT_WINDOW
        chain.adapt(hist)
        assert np.allclose(chain.chol, trailing_half_chol(hist), rtol=1e-12)
        step = 0.1 / math.sqrt(len(hist) // _ADAPT_WINDOW)
        assert chain.log_scale == pytest.approx(
            math.log(2.38 / math.sqrt(3.0)) + step * (1.0 - _TARGET_ACCEPT_BLOCK), abs=1e-15)

    def test_tallies_cleared(self):
        chain = three_individual_chain()
        chain.acc_b, chain.acc_e = 17, np.array([3.0, 50.0, 0.0])
        chain.adapt(np.zeros((_ADAPT_WINDOW, 3)))
        assert chain.acc_b == 0
        assert np.array_equal(chain.acc_e, np.zeros(3))


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

    def test_matches_numpy_gamma_bit_for_bit(self):
        # gibbs_sigma2 draws a standard gamma and scales it by 1/scale, which
        # is how numpy's gamma(shape, 1/scale) computes its variate
        rng, twin = np.random.default_rng(61), np.random.default_rng(61)
        for k in range(20000):
            eps = np.array([0.3 * (k % 7), -1.5, 0.01 * k])[:1 + k % 3]
            prior = InverseGammaPrior(0.001 + k % 5, 0.001 + 0.5 * (k % 3))
            shape = prior.shape + 0.5 * eps.size
            scale = prior.scale + 0.5 * float(eps.dot(eps))
            expected = 1.0 / max(twin.gamma(shape, 1.0 / scale), np.finfo(np.float64).tiny)
            assert gibbs_sigma2(eps, prior, rng) == expected

    def test_zero_variate_gives_a_finite_sigma2(self):
        # a standard-gamma variate of 0 is floored at tiny, in gibbs_sigma2
        # and in the sweep's sigma2 step alike
        floor = 1.0 / np.finfo(np.float64).tiny
        rng = ZeroGammas(np.random.default_rng(2))
        assert gibbs_sigma2(np.ones(3), InverseGammaPrior(2.0, 1.0), rng) == floor
        state = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        new = metropolis_sweep(tiny_panel(), state, default_uninformative(), rng)
        assert new.sigma2 == floor and math.isfinite(new.sigma2)


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

    def test_ess_of_one_draw_is_one(self):
        assert effective_sample_size([2.5]) == 1.0

    @pytest.mark.parametrize("sigma2", [0.0, -1.0])
    def test_samples_reject_non_positive_sigma2(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 draws must be positive"):
            PosteriorSamples(beta=np.zeros((2, 3)), sigma2=np.array([1.0, sigma2]),
                             accept_beta=0.3, accept_epsilon=np.zeros(1))

    def test_samples_reject_chains_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            PosteriorSamples(beta=np.zeros((3, 3)), sigma2=np.ones(2),
                             accept_beta=0.3, accept_epsilon=np.zeros(1))

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

    def test_ess_matches_the_lag_loop(self):
        def loop_ess(chain):
            # the estimator as a Python loop over the lags, stopping at the
            # first non-positive autocorrelation
            x = np.asarray(chain, dtype=np.float64)
            n = x.size
            xc = x - x.mean()
            if float(xc @ xc) == 0.0:
                return float(n)
            m = 1 << (2 * n - 1).bit_length()
            f = np.fft.rfft(xc, m)
            rho = np.fft.irfft(f * f.conjugate(), m)[:n].real
            rho = rho[1:] / rho[0]
            s = 0.0
            for r in rho:
                if r <= 0.0:
                    break
                s += r
            return float(min(float(n), max(1.0, n / (1.0 + 2.0 * s))))

        rng = np.random.default_rng(8)
        chains = [np.tile([0.0, 1.0], 20), np.arange(2.0), np.array([1.0, 1.0, 2.0]),
                  np.cumsum(rng.normal(size=500))]
        for phi in np.linspace(-0.9, 0.99, 60):
            n = int(rng.integers(2, 3000))
            x = np.empty(n)
            x[0] = rng.normal()
            for t in range(1, n):
                x[t] = phi * x[t - 1] + rng.normal()
            chains.append(x)
        for x in chains:
            assert effective_sample_size(x) == loop_ess(x)

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

    def test_pinned_digest(self):
        # Pins every draw of the adaptive kernel: burn_in = 537 crosses
        # _COV_START and leaves a 37-sweep partial window. A change that moves a draw on purpose (a new move in the
        # sweep, a new burn-in start) records the new digest here and says
        # so in CHANGES.md.
        s = run_chain(tiny_panel(), default_uninformative(),
                      ChainConfig(burn_in=537, samples=200, seed=3))
        digest = hashlib.sha256(s.beta.tobytes() + s.sigma2.tobytes()).hexdigest()
        assert digest == "864b8474534e122b534bd6b1eb8719cbba216aa79be2f4a91a0883133d62c403"
        assert s.accept_beta == 0.68
        assert s.accept_epsilon.tolist() == [0.455, 0.485]

    def test_pinned_digest_one_observation_per_individual(self):
        # the bundled surrogate's stage-1 panel, the shape `spindex` fits:
        # 45 individuals with one observation each
        years, returns = load_returns(surrogate_path())
        early = years <= DEFAULT_SPLIT_YEAR
        s = run_chain(series_to_panel(years[early], returns[early]), default_uninformative(),
                      ChainConfig(burn_in=600, samples=300, seed=11))
        draws, accepts = sha256(s.beta, s.sigma2), sha256(s.accept_epsilon)
        assert draws == "a0354e832a77dbf9759e5ca12a68d2d4b6bc0a07bd3ff4311b9b8f1b4cd9045a"
        assert accepts == "ff0639a0554c610679abe3d582ea6b40e9254e02762fa3e678fc6f2cf99384e7"
        assert s.accept_beta == 65 / 300

    @pytest.mark.parametrize("make, seed, draws, accepts", [
        (staggered_panel, 12, "67fad7cc62877270591eb172b53f0b0f826490c56254bc71ce3d27440b77be54",
         "4fa769fb091d1180648ba26de34a56812b911045e3cc8bfdd460b6b2a05ea164"),
        (long_beside_singles, 13,
         "7f7174f5e0be5844afefe186b8c75fa21473f001019f9589b1739233771448d6",
         "4801e919acdd737ea6b96ccdd109359c24de30201bee7f11a37891df2cb7eca7"),
    ], ids=["staggered_entry", "long_individual_beside_singles"])
    def test_pinned_digest_ragged(self, make, seed, draws, accepts):
        # two ragged panels `fit` accepts: 100 individuals entering over 12
        # periods (608 observations), and one individual of 200 observations
        # beside 400 of one
        s = run_chain(make(np.random.default_rng(seed)), default_uninformative(),
                      ChainConfig(burn_in=600, samples=400, seed=seed))
        assert sha256(s.beta, s.sigma2) == draws
        assert sha256(s.accept_epsilon) == accepts
        assert s.accept_beta == 0.33

    def test_pinned_digest_ragged_with_overflow_safe_windows(self, safe_windows):
        # the staggered panel with x2 scaled by 100: the first burn-in
        # windows could propose a mu past _EXP_SAFE, so on this grid with
        # overflow columns they take the overflow-safe softplus form, and
        # the later windows the two-call form
        d = staggered_panel(np.random.default_rng(15))
        data = PanelDataset(d.individual, d.time, d.y, d.x1, 100.0 * d.x2)
        s = run_chain(data, default_uninformative(), ChainConfig(burn_in=600, samples=400, seed=15))
        assert data.n_individuals < sampler._grid(data.codes, data.n_individuals)[2].size
        assert safe_windows[0] and 0 < sum(safe_windows) < len(safe_windows)
        assert sha256(s.beta, s.sigma2) == (
            "f1c074fdb490f600116f18c780fb1a54a73bbb410dc0393a0160fde04f62dc1f")
        assert sha256(s.accept_epsilon) == (
            "0da8f085140c00e821849c58f1dc46db7fa89cb8b12081f605ffaf0304ff8850")
        assert s.accept_beta == 0.315

    @pytest.mark.parametrize("thin", [2, 3])
    def test_windows_count_sweeps_not_kept_draws(self, thin):
        # the sampling phase runs in windows of sweeps, so thinning keeps
        # every thin-th draw of the unthinned chain
        data, priors = tiny_panel(), default_uninformative()
        thinned = run_chain(data, priors, ChainConfig(burn_in=120, samples=70, thin=thin, seed=6))
        full = run_chain(data, priors, ChainConfig(burn_in=120, samples=70 * thin, seed=6))
        assert np.array_equal(thinned.beta, full.beta[thin - 1::thin])
        assert np.array_equal(thinned.sigma2, full.sigma2[thin - 1::thin])

    def test_adapts_once_per_full_burn_in_window(self, monkeypatch):
        adapt, calls = _Chain.adapt, []

        def counted(chain, beta_hist):
            calls.append(len(beta_hist))
            adapt(chain, beta_hist)

        monkeypatch.setattr(_Chain, "adapt", counted)
        run_chain(tiny_panel(), default_uninformative(), ChainConfig(burn_in=537, samples=20, seed=3))
        assert calls == [_ADAPT_WINDOW * k for k in range(1, 11)]

    def test_rng_calls_per_window_are_fixed(self, monkeypatch):
        # every window draws its randomness in the same few calls, whatever
        # its length: burn-in 537 ends on a 37-sweep window, and each of the
        # two sampling segments of 60 draws on a 10
        default_rng, sweep = np.random.default_rng, _Chain.sweep
        counters, windows = [], []

        def counting(seed):
            counters.append(CountingRng(default_rng(seed)))
            return counters[-1]

        monkeypatch.setattr(np.random, "default_rng", counting)

        def counted(chain, rng, n=1):
            before = rng.calls
            out = sweep(chain, rng, n)
            windows.append((n, rng.calls - before))
            return out

        monkeypatch.setattr(_Chain, "sweep", counted)
        run_chain(tiny_panel(), default_uninformative(), ChainConfig(burn_in=537, samples=120, seed=3))
        assert [n for n, _ in windows] == [50] * 10 + [37] + [50, 10] + [50, 10]
        assert {calls for _, calls in windows} == {3}
        # burn-in, then one stream per segment
        assert [c.calls for c in counters] == [3 * 11, 3 * 2, 3 * 2]
        rng = CountingRng(default_rng(4))
        state = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        metropolis_sweep(tiny_panel(), state, default_uninformative(), rng)
        assert windows[-1] == (1, 3) and rng.calls == 3

    @pytest.mark.parametrize("samples", [2, 7])
    def test_segments_split_the_draws(self, monkeypatch, samples):
        # the first segment keeps ceil(samples / 2) draws, the second the rest
        sample, kept = sampler._sample, []

        def recorded(*args):
            out = sample(*args)
            kept.append(len(out[0]))
            return out

        monkeypatch.setattr(sampler, "_sample", recorded)
        s = run_chain(tiny_panel(), default_uninformative(),
                      ChainConfig(burn_in=60, samples=samples, thin=3, seed=2))
        assert kept == [(samples + 1) // 2, samples // 2]
        assert s.n_kept == samples

    def test_a_worker_never_changes_the_draws(self):
        # the second segment runs in a worker process: it must read only the
        # burn-in's end state and its own seed, never state the first shares
        data, priors = ragged_panel(np.random.default_rng(8)), default_uninformative()
        cfg = ChainConfig(burn_in=120, samples=151, thin=3, seed=4)
        here = run_chain(data, priors, cfg)
        with worker_pool(1) as pool:
            there = run_chain(data, priors, cfg, pool)
        assert np.array_equal(here.beta, there.beta)
        assert np.array_equal(here.sigma2, there.sigma2)
        assert here.accept_beta == there.accept_beta
        assert np.array_equal(here.accept_epsilon, there.accept_epsilon)

    def test_builds_one_chain(self, monkeypatch):
        # the burn-in and both sampling segments run on the chain built once
        init, built = _Chain.__init__, []

        def counted(chain, *args):
            built.append(chain)
            init(chain, *args)

        monkeypatch.setattr(_Chain, "__init__", counted)
        run_chain(tiny_panel(), default_uninformative(),
                  ChainConfig(burn_in=120, samples=30, seed=2))
        assert len(built) == 1

    def test_parent_segment_leaves_the_submitted_chain_unchanged(self):
        # a process pool pickles the chain after submit returns, and the
        # in-parent pool runs the segment after the parent's: neither may
        # see a chain the parent's segment has moved, nor may the segments
        # the pool runs move it
        pool = SnapshotPool()
        data, priors = ragged_panel(np.random.default_rng(8)), default_uninformative()
        cfg = ChainConfig(burn_in=120, samples=151, thin=3, seed=4)
        s = run_chain(data, priors, cfg, pool)
        (at_submit, chain), = pool.chains
        assert at_submit.acc_b > 0  # the burn-in's last partial window left tallies
        assert_same_chain(at_submit, chain)
        here = run_chain(data, priors, cfg)
        assert np.array_equal(s.beta, here.beta) and s.accept_beta == here.accept_beta

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda chain: pickle.loads(pickle.dumps(chain))],
                             ids=["deepcopy", "pickle"])
    def test_burned_in_chain_copies_whole(self, duplicate):
        # a copy shares no memory with its chain and, on the same seed, runs
        # a window, adapts from the cells it holds and runs another exactly
        # as the chain does
        chain = burned_in_chain()
        twin = duplicate(chain)
        assert_same_chain(chain, twin)
        ours, its = ([v for v in vars(c).values() if isinstance(v, np.ndarray)]
                     for c in (chain, twin))
        assert not any(np.shares_memory(a, b) for a in ours for b in its)
        draws = []
        for c in (chain, twin):
            rng = np.random.default_rng(9)
            hist = np.zeros((_COV_START, 3))
            hist[-_ADAPT_WINDOW:] = c.sweep(rng, _ADAPT_WINDOW)[0]
            c.adapt(hist)
            draws.append(np.column_stack(c.sweep(rng, _ADAPT_WINDOW)))
        assert np.array_equal(*draws)
        assert_same_chain(chain, twin)

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
        with pytest.raises(FloatingPointError, match="not finite at the initial state"):
            run_chain(tiny_panel(), bad, ChainConfig(burn_in=10, samples=10, seed=0))

    def test_initial_sigma2_is_the_prior_mean_or_1(self):
        # the IG mean scale/(shape - 1) when shape > 1 and it is finite, else 1
        for ig, start in [(InverseGammaPrior(3.0, 4.0), 2.0), (InverseGammaPrior(1.0, 4.0), 1.0),
                          (InverseGammaPrior(1.0 + 2.0 ** -52, 1e300), 1.0)]:
            priors = PriorSet(beta_priors=tuple(NormalPrior(0.0, 1.0) for _ in range(3)),
                              sigma2_prior=ig)
            assert initial_state(tiny_panel(), priors).sigma2 == start

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(samples=0)
        with pytest.raises(ValueError):
            ChainConfig(samples=1)  # every summary needs 2 kept draws
        with pytest.raises(ValueError):
            ChainConfig(thin=0)

    def test_chain_lengths_are_bounded_by_the_memory_kept(self):
        # 24 bytes per burn-in sweep and 32 per kept draw, 1 GiB each; thin
        # costs no memory and has no upper bound
        ChainConfig(burn_in=2 ** 30 // 24, samples=2 ** 30 // 32, thin=10 ** 30)
        for key, size, value in [("burn_in", 24, 2 ** 30 // 24 + 1), ("burn_in", 24, 10 ** 20),
                                 ("samples", 32, 2 ** 30 // 32 + 1)]:
            with pytest.raises(ValueError, match=f"^{key} must be <= {2 ** 30 // size} "):
                ChainConfig(**{key: value})

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

    def test_pinned_digest(self):
        # 300 fixed-scale sweeps on a ragged panel under informative priors,
        # with per-individual eps scales: pins every state the kernel visits
        rng = np.random.default_rng(44)
        data = ragged_panel(rng)
        priors = PriorSet(beta_priors=(NormalPrior(-0.5, 2.0), NormalPrior(1.0, 0.5),
                                       NormalPrior(0.3, 4.0)),
                          sigma2_prior=InverseGammaPrior(3.0, 2.5))
        scales = rng.uniform(0.3, 1.7, data.n_individuals)
        state = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=np.zeros(data.n_individuals),
                               sigma2=1.0)
        visited = []
        for _ in range(300):
            state = metropolis_sweep(data, state, priors, rng, beta_log_scale=math.log(0.4),
                                     eps_scales=scales)
            visited += [state.beta, state.epsilon, np.array([state.sigma2])]
        digest = sha256(*visited)
        assert digest == "d4a9b594f83daeeb8d7431861b051136145b7a1799943565e7dc1dd2609e99d8"

    def test_deterministic_given_rng_state(self):
        data = tiny_panel()
        priors = default_uninformative()
        st = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        a = metropolis_sweep(data, st, priors, np.random.default_rng(5))
        b = metropolis_sweep(data, st, priors, np.random.default_rng(5))
        assert np.array_equal(a.beta, b.beta)
        assert a.sigma2 == b.sigma2


class Wrapped:
    """A real Generator with some of its methods replaced."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)


class ZeroUniforms(Wrapped):
    """`random` returns zeros, so that every log(u) is -inf."""

    def random(self, size):
        return np.zeros(size)


class ZeroGammas(Wrapped):
    """`standard_gamma` returns zeros."""

    def standard_gamma(self, shape, size=None):
        return 0.0 if size is None else np.zeros(size)


class CountingRng(Wrapped):
    """Counts the calls made to the Generator's methods."""

    calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestZeroUniforms:
    # u = 0 accepts the beta proposal and every eps proposal (log 0 = -inf
    # is below any finite delta), without a divide-by-zero warning
    def test_metropolis_sweep(self):
        state = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            new = metropolis_sweep(tiny_panel(), state, default_uninformative(),
                                   ZeroUniforms(np.random.default_rng(3)), eps_scales=[0.5, 2.0])
        twin = np.random.default_rng(3)
        assert np.array_equal(new.beta, twin.standard_normal(3))  # the beta proposal
        assert np.array_equal(new.epsilon, twin.standard_normal(2) * [0.5, 2.0])

    def test_run_chain(self, monkeypatch):
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroUniforms(default_rng(seed)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = run_chain(tiny_panel(), default_uninformative(),
                          ChainConfig(burn_in=100, samples=10, seed=4))
        assert s.accept_beta == 1.0
        assert s.accept_epsilon.tolist() == [1.0, 1.0]


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

    def test_sweep_safe_form(self):
        # the one-call form a sweep takes in a window that could overflow
        # exp, under the suite's RuntimeWarning filter: within 3 ulp of the
        # two-call form, 0 at a padding cell's -inf, and x past exp's range
        x = np.linspace(-745.0, 700.0, 1_000_001)
        safe, ref = sampler._logaddexp_0(x, np.empty_like(x)), np.log1p(np.exp(x))
        assert np.all(np.abs(safe - ref) <= 3 * np.spacing(ref))
        out = sampler._logaddexp_0(np.array([-np.inf, 800.0, 1e308]), None)
        assert np.array_equal(out, [0.0, 800.0, 1e308])

    def test_two_call_form_below_the_sweep_bound(self):
        # the form a sweep uses in a window that cannot overflow exp against
        # `model.softplus`, which gives a chain its first column sums: the
        # same bits for x <= 0, within 2 ulp above
        x = np.linspace(-745.0, 700.0, 1_000_001)
        two_call, ref = np.log1p(np.exp(x)), softplus(x)
        assert np.array_equal(two_call[x <= 0.0], ref[x <= 0.0])
        assert np.all(np.abs(two_call - ref) <= 2 * np.spacing(ref))


class TestExpit:
    def test_matches_scipy(self):
        x = np.linspace(-40.0, 40.0, 80001)
        ref = special.expit(x)
        assert np.all(np.abs(expit(x) - ref) <= 1e-13 * ref)

    def test_bounded_at_extremes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([-1e308, -800.0, 800.0, 1e308]))
        assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))
        assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0])


class TestKernelCache:
    def test_carried_state_matches_recomputed(self):
        rng = np.random.default_rng(31)
        data = ragged_panel(rng)
        state = ParameterState(beta=rng.normal(0.0, 1.0, 3), epsilon=rng.normal(0.0, 1.5, 40),
                               sigma2=2.0)
        chain = fixed_scale_chain(data, default_uninformative(), state, math.log(0.3),
                                  rng.uniform(0.5, 2.0, 40))
        chain.chol = np.linalg.cholesky([[1.0, 0.3, 0.1], [0.3, 0.5, 0.0], [0.1, 0.0, 0.8]])
        for _ in range(200):
            chain.sweep(rng)
        # both blocks accepted some moves and rejected others
        assert 0 < chain.acc_b < 200
        assert np.all(chain.acc_e > 0) and np.all(chain.acc_e < 200)
        # every window here is below the overflow bound, so the sweep summed
        # every column in the two-call form; the grid has overflow columns
        # and padding (its height is 2)
        assert chain.grid[0] == 2 and chain.owner.size > data.n_individuals
        mu = check_sums(chain, data, lambda x: np.log1p(np.exp(x)))
        X = np.column_stack([np.ones(data.n_obs), data.x1, data.x2])
        np.testing.assert_allclose(mu, X @ chain.beta + chain.eps[data.codes], rtol=0.0, atol=1e-9)

    def test_window_that_could_overflow_uses_logaddexp(self):
        # mu starts near 690 (x2 = 100, beta2 = 6.9), and eps steps of sd 10
        # under a sigma2 held near 1e4 carry it past 709.78, where exp
        # overflows: the window must take the one-call np.logaddexp(0, mu),
        # under the suite's RuntimeWarning filter
        n_ind = 8
        data = PanelDataset(np.repeat(np.arange(n_ind), 2), np.tile([1, 2], n_ind),
                            np.ones(2 * n_ind, dtype=int), np.zeros(2 * n_ind),
                            np.full(2 * n_ind, 100.0))
        priors = PriorSet(beta_priors=tuple(NormalPrior(0.0, 100.0) for _ in range(3)),
                          sigma2_prior=InverseGammaPrior(1e4, 1e8))
        state = ParameterState(beta=[0.0, 0.0, 6.9], epsilon=np.zeros(n_ind), sigma2=1e4)
        chain = fixed_scale_chain(data, priors, state, math.log(0.01), 10.0)
        chain.sweep(np.random.default_rng(5), _ADAPT_WINDOW)
        assert chain.mus[0].max() > 709.78
        check_sums(chain, data, lambda x: np.logaddexp(0.0, x))


def one_per_individual(rng, n_ind=45):
    return PanelDataset(np.arange(n_ind), np.ones(n_ind, dtype=int), rng.integers(0, 2, n_ind),
                        rng.normal(0.0, 1.0, n_ind), rng.normal(0.0, 1.0, n_ind))


GRID_PANELS = {"tiny": lambda rng: tiny_panel(), "ragged": ragged_panel,
               "staggered": staggered_panel, "long_beside_singles": long_beside_singles,
               "one_per_individual": one_per_individual, "empty": lambda rng: empty_panel()}


class TestGrid:
    @pytest.mark.parametrize("name", GRID_PANELS)
    def test_layout(self, name):
        # every observation has its own cell, in a column its individual
        # owns, in time order down its first column and then its overflow
        # columns; fewer than 2 cells per observation
        data = GRID_PANELS[name](np.random.default_rng(3))
        h, cells, owner = sampler._grid(data.codes, data.n_individuals)
        c = owner.size
        assert np.array_equal(owner[:data.n_individuals], np.arange(data.n_individuals))
        assert np.unique(cells).size == data.n_obs and np.all((cells >= 0) & (cells < h * c))
        assert h * c < 2 * data.n_obs or data.n_obs == 0
        row, col = np.divmod(cells, c) if c else (cells, cells)
        assert np.array_equal(owner[col], data.codes)
        order = np.lexsort((row, np.where(col < data.n_individuals, -1, col), data.codes))
        assert np.array_equal(order, np.arange(data.n_obs))
        if name in ("tiny", "one_per_individual", "empty"):  # balanced: no overflow column
            assert c == data.n_individuals and h * c == data.n_obs

    def test_any_counts_give_fewer_cells_than_twice_the_observations(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            counts = rng.integers(1, rng.integers(2, 60), rng.integers(1, 40))
            codes = np.repeat(np.arange(counts.size), counts)
            h, cells, owner = sampler._grid(codes, counts.size)
            assert h * owner.size < 2 * codes.size
            assert np.unique(cells).size == codes.size
            assert np.array_equal(owner[cells % owner.size], codes)

    @pytest.mark.parametrize("name", GRID_PANELS)
    def test_sweeps_keep_padding_and_sums(self, name):
        # two windows at chain-like scales: no RuntimeWarning fires, padding
        # stays -inf and every column sum matches its cells
        rng = np.random.default_rng(9)
        data = GRID_PANELS[name](rng)
        state = ParameterState(beta=rng.normal(0.0, 1.0, 3),
                               epsilon=rng.normal(0.0, 1.0, data.n_individuals), sigma2=1.5)
        chain = fixed_scale_chain(data, default_uninformative(), state, math.log(0.2), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(2):
                chain.sweep(rng, _ADAPT_WINDOW)
            chain.adapt(np.zeros((_ADAPT_WINDOW, 3)))
        check_sums(chain, data, lambda x: np.log1p(np.exp(x)))
        assert not hasattr(chain, "codes") and not hasattr(chain, "rows")

    @pytest.mark.parametrize("name, folds", [("tiny", False), ("long_beside_singles", True)])
    def test_balanced_sweep_folds_nothing(self, monkeypatch, name, folds):
        # a balanced panel's sweep runs without bincount; a ragged one with
        # overflow columns needs it to fold them into their owners
        data, priors = GRID_PANELS[name](np.random.default_rng(1)), default_uninformative()
        chain = fixed_scale_chain(data, priors, initial_state(data, priors), 0.0, 1.0)

        def no_bincount(*args, **kwargs):
            raise AssertionError("bincount called")

        monkeypatch.setattr(np, "bincount", no_bincount)
        if folds:
            with pytest.raises(AssertionError, match="bincount called"):
                chain.sweep(np.random.default_rng(2), 5)
        else:
            chain.sweep(np.random.default_rng(2), 5)


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


@pytest.mark.parametrize("n_kept", [2, 7, 10000])
def test_draws_csv_matches_the_csv_module(tmp_path, n_kept):
    rng = np.random.default_rng(n_kept)
    beta, sigma2 = rng.normal(0.0, 1.0, (n_kept, 3)), rng.gamma(2.0, 1.0, n_kept)
    # floats whose repr is signed, subnormal, huge or in exponent form
    beta[0], sigma2[0] = [-0.0, 1e308, 1.0 / np.finfo(np.float64).tiny], 5e-324
    beta[-1, 0] = 1e-300
    s = PosteriorSamples(beta=beta, sigma2=sigma2, accept_beta=0.3,
                         accept_epsilon=np.zeros(1))
    draws_to_csv(s, str(tmp_path / "draws.csv"))
    expect = io.StringIO()
    csv.writer(expect, lineterminator="\n").writerows(
        [["iteration", "parameter", "value"]]
        + [[k + 1, name, float(x)] for k, draw in enumerate(np.column_stack([beta, sigma2]))
           for name, x in zip(("beta0", "beta1", "beta2", "sigma2"), draw)])
    written = (tmp_path / "draws.csv").read_bytes()
    assert written == expect.getvalue().encode("utf-8")
    assert len(written.decode().split("\n")) == 1 + 4 * n_kept + 1


def per_value_csv(samples):
    """The draws CSV by its per-value formula: one repr per value."""
    draws = np.column_stack([samples.beta, samples.sigma2]).tolist()
    return "iteration,parameter,value\n" + "".join(
        f"{i},beta0,{b0!r}\n{i},beta1,{b1!r}\n{i},beta2,{b2!r}\n{i},sigma2,{s2!r}\n"
        for i, (b0, b1, b2, s2) in enumerate(draws, 1))


def hand_built(*rows):
    beta = np.array(rows, dtype=np.float64)
    return PosteriorSamples(beta=beta, sigma2=np.linspace(0.5, 3.0, len(rows)),
                            accept_beta=0.3, accept_epsilon=np.zeros(1))


DRAWS_CSV_SAMPLES = {
    "repeated_runs": lambda: hand_built(*[[1.5, -2.0, 0.1]] * 3, *[[0.25, -2.0, 0.1]] * 4,
                                        [1e-300, 3.0, -7e22], *[[0.25, -2.0, 0.1]] * 2),
    # each row differs from the one before only in the sign of a zero
    "zero_sign": lambda: hand_built([0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                                    [0.0, 1.0, -0.0], [0.0, 1.0, 0.0]),
    "all_fresh": lambda: hand_built(*np.random.default_rng(4).normal(0.0, 1.0, (50, 3))),
    "two_repeated": lambda: hand_built([0.5, -0.5, 5e-324], [0.5, -0.5, 5e-324]),
    "run_chain_thin_3": lambda: run_chain(ragged_panel(np.random.default_rng(8)),
                                          default_uninformative(),
                                          ChainConfig(burn_in=600, samples=60, thin=3, seed=5)),
}


@pytest.mark.parametrize("name", DRAWS_CSV_SAMPLES)
def test_draws_csv_matches_the_per_value_formula(tmp_path, name):
    # draws_to_csv formats each run of repeated beta rows once; every byte
    # must still be what formatting each value on its own writes
    s = DRAWS_CSV_SAMPLES[name]()
    if name == "run_chain_thin_3":  # the chain kept some rejected proposals
        assert np.any(np.all(s.beta[1:] == s.beta[:-1], axis=1))
    draws_to_csv(s, str(tmp_path / "draws.csv"))
    assert (tmp_path / "draws.csv").read_bytes() == per_value_csv(s).encode("utf-8")
