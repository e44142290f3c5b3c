import math

import numpy as np
import pytest

from panelbayes import (ConfigError, InverseGammaPrior, NormalPrior, PanelDataset,
                        ParameterState, PriorSet, concat_panels, log_likelihood,
                        log_posterior)
from panelbayes.priors import log_density_invgamma, log_density_normal


def small_panel():
    # 2 individuals, ragged: individual 1 has 3 obs, individual 2 has 2
    return PanelDataset(
        individual=[1, 1, 1, 2, 2],
        time=[1, 2, 3, 1, 2],
        y=[1, 0, 1, 0, 1],
        x1=[1.0, 1.0, 1.0, 0.0, 0.0],
        x2=[0.2, -0.4, 1.1, 0.0, 0.3],
    )


def diffuse_priors():
    return PriorSet(beta_priors=tuple(NormalPrior(0.0, 100.0) for _ in range(3)),
                    sigma2_prior=InverseGammaPrior(2.0, 1.0))


class TestLogLikelihood:
    def one_obs(self, y):
        return PanelDataset([1], [1], [y], [0.0], [0.0])

    def test_single_obs_mu_zero(self):
        st = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0], sigma2=1.0)
        for y in (0, 1):
            assert log_likelihood(self.one_obs(y), st) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_obs_hand_sum(self):
        # y=(1,0) at mu=ln 3 each: ln(0.75) + ln(0.25)
        data = PanelDataset([1, 1], [1, 2], [1, 0], [0.0, 0.0], [0.0, 0.0])
        st = ParameterState(beta=[math.log(3.0), 0.0, 0.0], epsilon=[0.0], sigma2=1.0)
        expected = math.log(0.75) + math.log(0.25)
        assert log_likelihood(data, st) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        st = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0, 0.0], sigma2=1.0)
        with pytest.raises(ValueError):
            log_likelihood(self.one_obs(1), st)

    def test_large_mu_stable(self):
        data = PanelDataset([1], [1], [1], [0.0], [800.0])
        st = ParameterState(beta=[0.0, 0.0, 1.0], epsilon=[0.0], sigma2=1.0)
        val = log_likelihood(data, st)
        assert math.isfinite(val)
        assert val == pytest.approx(0.0, abs=1e-12)  # p -> 1

    def test_permuting_individuals_with_epsilon(self):
        rng = np.random.default_rng(4)
        n_ind, per = 6, 4
        ind = np.repeat(np.arange(1, n_ind + 1), per)
        data = PanelDataset(ind, np.tile(np.arange(1, per + 1), n_ind),
                            rng.integers(0, 2, n_ind * per),
                            rng.normal(size=n_ind * per), rng.normal(size=n_ind * per))
        eps = rng.normal(size=n_ind)
        st = ParameterState(beta=[-1.0, 1.0, 1.0], epsilon=eps, sigma2=1.0)
        base = log_likelihood(data, st)

        perm = rng.permutation(n_ind)
        relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
        data2 = PanelDataset([relabel[i] for i in data.individual], data.time,
                             data.y, data.x1, data.x2)
        # epsilon must follow its individual: new id k holds eps[perm[k-1]]
        st2 = ParameterState(beta=[-1.0, 1.0, 1.0], epsilon=eps[perm], sigma2=1.0)
        assert log_likelihood(data2, st2) == pytest.approx(base, abs=1e-12)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        n_ind, per = 5, 4
        ind = np.repeat(np.arange(1, n_ind + 1), per)
        data = PanelDataset(ind, np.tile(np.arange(1, per + 1), n_ind),
                            rng.integers(0, 2, n_ind * per),
                            rng.normal(size=n_ind * per), rng.normal(size=n_ind * per))
        eps = rng.normal(scale=0.5, size=n_ind)
        beta = np.array([-1.0, 1.0, 1.0])
        st = ParameterState(beta=beta, epsilon=eps, sigma2=1.0)

        # analytic score: sum over obs of (y - p) * x_k, x_0 = 1
        mu = beta[0] + beta[1] * data.x1 + beta[2] * data.x2 + eps[data.codes]
        p = 1.0 / (1.0 + np.exp(-mu))
        X = np.column_stack([np.ones(data.n_obs), data.x1, data.x2])
        analytic = (data.y - p) @ X

        h = 1e-5
        for k in range(3):
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            fd = (log_likelihood(data, ParameterState(bp, eps, 1.0))
                  - log_likelihood(data, ParameterState(bm, eps, 1.0))) / (2 * h)
            assert fd == pytest.approx(analytic[k], rel=1e-6)


class TestLogPosterior:
    def test_empty_dataset_is_prior_only(self):
        empty = PanelDataset([], [], [], [], [])
        priors = diffuse_priors()
        st = ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[], sigma2=1.0)
        expected = sum(log_density_normal(p, 0.0) for p in priors.beta_priors)
        expected += log_density_invgamma(priors.sigma2_prior, 1.0)
        assert log_posterior(empty, st, priors) == pytest.approx(expected, abs=1e-12)

    def test_unimodal_in_beta0(self):
        data = PanelDataset([1], [1], [1], [0.5], [0.5])
        priors = diffuse_priors()

        def lp(b0):
            st = ParameterState(beta=[b0, 0.0, 0.0], epsilon=[0.0], sigma2=1.0)
            return log_posterior(data, st, priors)

        grid = np.linspace(-6, 6, 241)
        vals = np.array([lp(b) for b in grid])
        mode = grid[vals.argmax()]
        for offset in (0.5, 1.0, 2.0, 4.0):
            assert lp(mode + offset) < lp(mode)
            assert lp(mode - offset) < lp(mode)

    def test_term_by_term_oracle(self):
        data = PanelDataset([1, 2], [1, 1], [1, 0], [0.7, -0.2], [1.3, 0.4])
        priors = PriorSet(
            beta_priors=(NormalPrior(-1.0, 2.0), NormalPrior(0.5, 3.0), NormalPrior(0.0, 1.5)),
            sigma2_prior=InverseGammaPrior(3.0, 2.0),
        )
        beta = np.array([-0.8, 0.9, 1.2])
        eps = np.array([0.3, -0.6])
        sigma2 = 0.7
        st = ParameterState(beta=beta, epsilon=eps, sigma2=sigma2)

        # independent summation of each density term, scalar arithmetic only
        oracle = 0.0
        rows = list(zip(data.individual, data.y, data.x1, data.x2))
        eps_by_id = {1: 0.3, 2: -0.6}
        for i, y, x1, x2 in rows:
            m = beta[0] + beta[1] * x1 + beta[2] * x2 + eps_by_id[int(i)]
            pr = math.exp(m) / (1.0 + math.exp(m))
            oracle += math.log(pr if y == 1 else 1.0 - pr)
        for b, p in zip(beta, priors.beta_priors):
            oracle += -0.5 * math.log(2 * math.pi * p.variance) - (b - p.mean) ** 2 / (2 * p.variance)
        for e in eps:
            oracle += -0.5 * math.log(2 * math.pi * sigma2) - e ** 2 / (2 * sigma2)
        a, b = 3.0, 2.0
        oracle += a * math.log(b) - math.lgamma(a) - (a + 1) * math.log(sigma2) - b / sigma2

        assert log_posterior(data, st, priors) == pytest.approx(oracle, abs=1e-12)

    def test_prior_part_is_data_free(self):
        priors = diffuse_priors()
        st = ParameterState(beta=[0.3, -0.4, 1.1], epsilon=[0.2, -0.1], sigma2=0.9)
        rng = np.random.default_rng(0)
        diffs = []
        for _ in range(3):
            data = PanelDataset([1, 1, 2, 2], [1, 2, 1, 2], rng.integers(0, 2, 4),
                                rng.normal(size=4), rng.normal(size=4))
            diffs.append(log_posterior(data, st, priors) - log_likelihood(data, st))
        assert diffs[0] == pytest.approx(diffs[1], abs=1e-12)
        assert diffs[1] == pytest.approx(diffs[2], abs=1e-12)


class TestPanelDataset:
    def test_rejects_non_binary_y(self):
        with pytest.raises(ValueError):
            PanelDataset([1], [1], [2], [0.0], [0.0])
        with pytest.raises(ValueError):
            PanelDataset([1], [1], [0.3], [0.0], [0.0])

    def test_rejects_duplicate_time(self):
        with pytest.raises(ValueError):
            PanelDataset([1, 1], [2, 2], [0, 1], [0.0, 0.0], [0.0, 0.0])

    def test_canonical_order(self):
        data = PanelDataset([2, 1, 1], [1, 2, 1], [0, 1, 0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        assert list(data.individual) == [1, 1, 2]
        assert list(data.time) == [1, 2, 1]

    def test_ragged_supported(self):
        data = small_panel()
        assert data.n_individuals == 2
        assert list(data.counts()) == [3, 2]
        assert not data.is_rectangular()

    def test_csv_round_trip(self, tmp_path):
        data = small_panel()
        path = tmp_path / "panel.csv"
        data.to_csv(str(path))
        back = PanelDataset.from_csv(str(path))
        assert back.content_hash() == data.content_hash()
        # a second write is byte-identical
        path2 = tmp_path / "panel2.csv"
        back.to_csv(str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_csv_errors_are_anchored(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("foo,bar\n")
        with pytest.raises(ConfigError, match="a.csv:1"):
            PanelDataset.from_csv(str(bad_header))

        bad_y = tmp_path / "b.csv"
        bad_y.write_text("individual,time,y,x1,x2\n1,1,1,0.0,0.0\n1,2,7,0.0,0.0\n")
        with pytest.raises(ConfigError, match="b.csv:3.*'y'"):
            PanelDataset.from_csv(str(bad_y))

        bad_x = tmp_path / "c.csv"
        bad_x.write_text("individual,time,y,x1,x2\n1,1,1,zap,0.0\n")
        with pytest.raises(ConfigError, match="c.csv:2.*'x1'"):
            PanelDataset.from_csv(str(bad_x))

        with pytest.raises(ConfigError, match="missing.csv"):
            PanelDataset.from_csv(str(tmp_path / "missing.csv"))

    def test_concat_rejects_overlap(self):
        a = small_panel()
        with pytest.raises(ValueError):
            concat_panels(a, a)
