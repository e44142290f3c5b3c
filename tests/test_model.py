import csv
import io
import math

import numpy as np
import pytest

from panelbayes.errors import ConfigError
from panelbayes.model import (PANEL_CSV_HEADER, PanelDataset, ParameterState, concat_panels,
                              log_likelihood, log_posterior, write_csv)
from panelbayes.priors import (InverseGammaPrior, NormalPrior, PriorSet, log_density_invgamma,
                               log_density_normal)


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

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            PanelDataset([1, 1], [1, 2], [0, 1], [0.0, 0.0], [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_covariates(self, bad):
        for x1, x2 in (([bad], [0.0]), ([0.0], [bad])):
            with pytest.raises(ValueError, match="covariates must be finite"):
                PanelDataset([1], [1], [0], x1, x2)

    def test_canonical_order(self):
        data = PanelDataset([2, 1, 1], [1, 2, 1], [0, 1, 0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        assert list(data.individual) == [1, 1, 2]
        assert list(data.time) == [1, 2, 1]

    def test_ragged_supported(self):
        data = small_panel()
        assert data.n_individuals == 2
        assert list(np.bincount(data.codes)) == [3, 2]
        assert not data.is_rectangular()

    def test_csv_round_trip(self, tmp_path):
        data = small_panel()
        path = tmp_path / "panel.csv"
        data.to_csv(str(path))
        back = PanelDataset.from_csv(str(path))
        for col in PANEL_CSV_HEADER:
            assert np.array_equal(getattr(back, col), getattr(data, col))
        # a second write is byte-identical
        path2 = tmp_path / "panel2.csv"
        back.to_csv(str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_csv_errors_are_anchored(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("foo,bar\n")
        with pytest.raises(ConfigError, match="a.csv:1"):
            PanelDataset.from_csv(str(bad_header))

        short = tmp_path / "short.csv"
        short.write_text("individual,time,y,x1,x2\n1,1,1,0.0,0.0\n1,2,1,0.0\n")
        with pytest.raises(ConfigError) as exc:
            PanelDataset.from_csv(str(short))
        assert str(exc.value) == f"{short}:3: expected 5 columns, got 4"

        # every column's bad cell, after a good row; the raw cell is quoted,
        # and the first bad cell in file order is the one named
        bad_rows = {
            "individual": ("1.5,2,1,0.0,0.0", "column 'individual' is not an integer: '1.5'"),
            "time": ("1,two,1,0.0,0.0", "column 'time' is not an integer: 'two'"),
            "y": ("1,2,7,0.0,0.0", "column 'y' is not 0 or 1: '7'"),
            "y_float": ("1,2, 1.0 ,0.0,0.0", "column 'y' is not 0 or 1: ' 1.0 '"),
            "x1": ("1,2,1,zap,0.0", "column 'x1' is not a finite number: 'zap'"),
            "x2": ("1,2,1,0.0,inf", "column 'x2' is not a finite number: 'inf'"),
            "first": ("1,x,7,nan,0.0", "column 'time' is not an integer: 'x'"),
            # beyond the int64 arrays the integer columns are held in
            "individual_int64": ("99999999999999999999,2,1,0.0,0.0", "column 'individual' is "
                                 "not a 64-bit integer: '99999999999999999999'"),
            "time_int64": ("1,-9223372036854775809,1,0.0,0.0",
                           "column 'time' is not a 64-bit integer: '-9223372036854775809'"),
            # digit-group underscores and non-ASCII digits, which int() and
            # float() take
            "individual_underscore": ("1_0,2,1,0.0,0.0",
                                      "column 'individual' is not an integer: '1_0'"),
            "time_arabic_indic": ("1,\u0661\u0660,1,0.0,0.0",
                                  "column 'time' is not an integer: '\u0661\u0660'"),
            "x1_underscore": ("1,2,1,0_5,0.0", "column 'x1' is not a finite number: '0_5'"),
            "x2_arabic_indic": ("1,2,1,0.0,\u0665.0",
                                "column 'x2' is not a finite number: '\u0665.0'"),
        }
        for name, (row, message) in bad_rows.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(f"individual,time,y,x1,x2\n1,1,1,0.0,0.0\n{row}\n", encoding="utf-8")
            with pytest.raises(ConfigError) as exc:
                PanelDataset.from_csv(str(path))
            assert str(exc.value) == f"{path}:3: {message}"

        with pytest.raises(ConfigError, match="missing.csv"):
            PanelDataset.from_csv(str(tmp_path / "missing.csv"))

    def test_csv_allows_blanks_around_every_cell(self, tmp_path):
        clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
        clean.write_text("individual,time,y,x1,x2\n1,1,1,0.5,0.2\n")
        padded.write_text("individual,time,y,x1,x2\n 1 ,\t1 , 1\t, 0.5 ,0.2 \n")
        a, b = PanelDataset.from_csv(str(clean)), PanelDataset.from_csv(str(padded))
        for col in PANEL_CSV_HEADER:
            assert np.array_equal(getattr(a, col), getattr(b, col))
            assert getattr(a, col).dtype == getattr(b, col).dtype

    def test_csv_reads_every_ascii_number_form(self, tmp_path):
        # a sign, a point, an exponent and the int64 range's ends all read
        good = tmp_path / "good.csv"
        good.write_text("individual,time,y,x1,x2\n"
                        "+1,007,1,.5,-2.E+1\n-0,1,0,5.,1e-3\n"
                        "9223372036854775807,-9223372036854775808,1,0.0,0.0\n")
        data = PanelDataset.from_csv(str(good))
        assert data.individual.tolist() == [0, 1, 2 ** 63 - 1]
        assert data.time.tolist() == [1, 7, -2 ** 63]
        assert data.x1.tolist() == [5.0, 0.5, 0.0] and data.x2.tolist() == [0.001, -20.0, 0.0]

    def test_csv_drops_one_leading_byte_order_mark(self, tmp_path):
        text = "individual,time,y,x1,x2\n1,1,1,0.5,0.2\n1,2,0,0.5,0.2\n"
        clean, marked, twice = tmp_path / "clean.csv", tmp_path / "bom.csv", tmp_path / "two.csv"
        clean.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")  # what spreadsheets save as CSV UTF-8
        twice.write_text("\ufeff" + text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = PanelDataset.from_csv(str(clean)), PanelDataset.from_csv(str(marked))
        for col in PANEL_CSV_HEADER:
            assert np.array_equal(getattr(a, col), getattr(b, col))
        with pytest.raises(ConfigError) as exc:
            PanelDataset.from_csv(str(twice))
        assert str(exc.value) == f"{twice}:1: expected header individual,time,y,x1,x2"

    def test_write_csv_matches_the_csv_module(self, tmp_path, capsys):
        # the kinds of cell every caller writes: ints, Python floats, and
        # parameter and run names
        header = ["run", "N", "parameter", "value"]
        floats = [-0.0, 0.0, 1e-300, 1e308, 0.1, -2.5, 1.0 / 3.0, 5e-324, 123456789.0]
        rows = [[f"R{k % 6 + 1}", k - 4, name, x] for k, (name, x) in
                enumerate(zip(["beta0", "beta1", "beta2", "sigma", "sigma2"] * 2, floats))]
        expect = io.StringIO()
        csv.writer(expect, lineterminator="\n").writerows([header] + rows)
        path = tmp_path / "rows.csv"
        write_csv(str(path), header, rows)
        assert path.read_bytes() == expect.getvalue().encode("utf-8")
        write_csv(None, header, rows)
        assert capsys.readouterr().out == expect.getvalue()

    def test_concat_rejects_overlap(self):
        a = small_panel()
        with pytest.raises(ValueError):
            concat_panels(a, a)

    def test_concat_needs_a_panel(self):
        with pytest.raises(ValueError, match="at least one panel"):
            concat_panels()


class TestParameterState:
    def test_rejects_two_betas(self):
        with pytest.raises(ValueError, match="exactly 3"):
            ParameterState(beta=[0.0, 1.0], epsilon=[0.0], sigma2=1.0)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0])
    def test_rejects_non_positive_sigma2(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            ParameterState(beta=[0.0, 0.0, 0.0], epsilon=[0.0], sigma2=sigma2)
