import logging
import math
import multiprocessing
import re

import numpy as np
import pytest
from scipy.special import expit

from panelbayes import sampler
from panelbayes.errors import ConfigError
from panelbayes.priors import default_uninformative, posterior_to_priorset
from panelbayes.sampler import ChainConfig
from panelbayes.spindex import (DEFAULT_SPLIT_YEAR, load_returns, make_surrogate,
                                series_to_panel, surrogate_path, two_stage_fit)
from panelbayes.workers import InParent, worker_pool

FAST_CHAIN = ChainConfig(burn_in=400, samples=800, seed=11)
real_log_posterior = sampler.log_posterior


def late_diffuse_fit_fails(data, state, priors):
    """Fails the chain of the 14 late surrogate years under diffuse priors."""
    if data.n_individuals == 14 and priors == default_uninformative():
        raise FloatingPointError("the uninformative fit failed")
    return real_log_posterior(data, state, priors)


class RecordingPool(InParent):
    """Runs every task in this process, as `worker_pool(0)` does, and records
    each submitted task as (function, arguments)."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append((fn, args))
        return super().submit(fn, *args)


class TestBinarize:
    """The threshold rule `series_to_panel` applies to make y."""

    def y(self, values, **kwargs):
        years = 1960 + np.arange(len(values))
        return series_to_panel(years, np.asarray(values, float), **kwargs).y

    def test_threshold_rule(self):
        assert list(self.y([2.0, 1.4, -0.3])) == [1, 0, 0]  # exceed / equal / below

    def test_custom_threshold(self):
        assert list(self.y([2.0, 1.4, -0.3], threshold=0.0)) == [1, 1, 0]

    def test_monotone(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(1.4, 1.0, size=200)
        assert (self.y(vals + 0.25) >= self.y(vals)).all()


class TestBuildDesign:
    """The design `series_to_panel` builds: x1 = year - 1960, x2 = 0."""

    def test_x1_values(self):
        panel = series_to_panel([1960, 2004, 2018], [0.0, 0.0, 0.0])
        assert list(panel.x1) == [0.0, 44.0, 58.0]
        assert list(panel.x2) == [0.0, 0.0, 0.0]


class TestReturnSeries:
    """The year,return series as `load_returns` reads it and its one panel."""

    def rejects(self, tmp_path, years):
        path = tmp_path / "r.csv"
        path.write_text("year,return\n" + "".join(f"{y},1.0\n" for y in years))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: years must be strictly"):
            load_returns(str(path))

    def test_rejects_duplicate_years(self, tmp_path):
        self.rejects(tmp_path, (1990, 1990))

    def test_rejects_unsorted(self, tmp_path):
        self.rejects(tmp_path, (1991, 1990))

    def test_panel_layout(self):
        panel = series_to_panel(np.array([1960, 1961, 1962]), np.array([2.0, 0.1, 1.6]))
        assert panel.n_individuals == 3      # one individual per year
        assert list(np.bincount(panel.codes)) == [1, 1, 1]
        assert list(panel.individual) == [1960, 1961, 1962]
        assert (panel.x2 == 0.0).all()
        assert list(panel.x1) == [0.0, 1.0, 2.0]
        assert list(panel.y) == [1, 0, 1]


class TestLoadReturns:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("year,return\n1990,1.5\n 1991 , -0.25 \n")
        years, returns = load_returns(str(path))
        assert list(years) == [1990, 1991]
        assert list(returns) == [1.5, -0.25]

    def test_anchored_errors(self, tmp_path):
        bad_rows = {
            "year": ("1991.0,0.5", "column 'year' is not an integer: '1991.0'"),
            "return": ("1991,zap", "column 'return' is not a finite number: 'zap'"),
            "return_nan": ("1991, nan", "column 'return' is not a finite number: ' nan'"),
            "first": ("x,zap", "column 'year' is not an integer: 'x'"),
            "year_int64": ("99999999999999999999,0.5",
                           "column 'year' is not a 64-bit integer: '99999999999999999999'"),
            "year_underscore": ("1_991,0.5", "column 'year' is not an integer: '1_991'"),
            "return_underscore": ("1991,0_5", "column 'return' is not a finite number: '0_5'"),
        }
        for name, (row, message) in bad_rows.items():
            bad = tmp_path / f"{name}.csv"
            bad.write_text(f"year,return\n1990,1.5\n{row}\n")
            with pytest.raises(ConfigError) as exc:
                load_returns(str(bad))
            assert str(exc.value) == f"{bad}:3: {message}"
        noheader = tmp_path / "nh.csv"
        noheader.write_text("y,r\n1,2\n")
        with pytest.raises(ConfigError, match="nh.csv:1"):
            load_returns(str(noheader))
        unsorted = tmp_path / "unsorted.csv"
        unsorted.write_text("year,return\n1991,1.5\n1990,0.5\n")
        with pytest.raises(ConfigError) as exc:
            load_returns(str(unsorted))
        assert str(exc.value) == f"{unsorted}: years must be strictly increasing (no duplicates)"


def test_bundled_surrogate_matches_recipe():
    years, returns = load_returns(surrogate_path())
    assert years[0] == 1960
    assert years[-1] == 2018
    assert years.size == 59
    regen_years, regen_returns = make_surrogate()
    assert np.array_equal(years, regen_years)
    assert np.allclose(returns, regen_returns, atol=1e-9)


class TestTwoStageFit:
    def test_output_layout(self):
        report = two_stage_fit(*load_returns(surrogate_path()), FAST_CHAIN)
        assert list(report) == ["uninformative", "informative"]
        for stats in report.values():
            assert list(stats) == ["beta0", "beta1", "sigma"]
            for s in stats.values():
                assert s.lower <= s.mean <= s.upper

    def test_deterministic(self):
        series = load_returns(surrogate_path())
        a = two_stage_fit(*series, FAST_CHAIN)
        b = two_stage_fit(*series, FAST_CHAIN)
        assert a == b

    def test_jobs_do_not_change_the_report(self):
        series = load_returns(surrogate_path())
        with worker_pool(1) as pool:
            assert two_stage_fit(*series, FAST_CHAIN) == two_stage_fit(*series, FAST_CHAIN,
                                                                       pool=pool)

    def test_worker_runs_the_uninformative_fit_then_one_informative_segment(self):
        # stage 1 keeps the parent; the worker gets the whole diffuse-prior
        # fit and the carried-over fit's second sampling segment
        series = load_returns(surrogate_path())
        in_turn = two_stage_fit(*series, FAST_CHAIN)
        pool = RecordingPool()
        assert two_stage_fit(*series, FAST_CHAIN, pool=pool) == in_turn
        (first, first_args), (second, (chain, *_)) = pool.submitted
        assert (first, first_args[1]) == (sampler.run_chain, default_uninformative())
        # the segment's chain has stage 1's posterior as its own prior
        early = series[0] <= DEFAULT_SPLIT_YEAR
        stage1 = sampler.run_chain(series_to_panel(series[0][early], series[1][early]),
                                   default_uninformative(), FAST_CHAIN.derive(1))
        carried = posterior_to_priorset(stage1)
        assert second is sampler._sample
        assert chain.sigma2_scale == carried.sigma2_prior.scale
        assert chain.beta_prior == [(p.mean, 2.0 * p.variance) for p in carried.beta_priors]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched log_posterior must reach the worker")
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_first_failure_in_fit_order_wins(self, monkeypatch, workers):
        def no_carry_over(samples):
            raise ValueError("cannot carry over")
        monkeypatch.setattr("panelbayes.sampler.log_posterior", late_diffuse_fit_fails)
        monkeypatch.setattr("panelbayes.spindex.posterior_to_priorset", no_carry_over)
        with pytest.raises(FloatingPointError, match="the uninformative fit failed"):
            with worker_pool(workers) as pool:
                two_stage_fit(*load_returns(surrogate_path()), FAST_CHAIN, pool=pool)

    def test_empty_stage_rejected(self):
        series = load_returns(surrogate_path())
        with pytest.raises(ConfigError, match="stage 2"):
            two_stage_fit(*series, FAST_CHAIN, split_year=2018)
        with pytest.raises(ConfigError, match="stage 2"):
            two_stage_fit(*series, FAST_CHAIN, split_year=3000)
        with pytest.raises(ConfigError, match="stage 1"):
            two_stage_fit(*series, FAST_CHAIN, split_year=1900)
        with pytest.raises(ConfigError, match="empty stage 1"):
            two_stage_fit(np.array([], dtype=np.int64), np.array([]), FAST_CHAIN)

    def test_degenerate_stage_warns_but_completes(self, caplog):
        years = np.arange(1960, 2010)
        rng = np.random.default_rng(2)
        rets = rng.normal(1.4, 1.0, size=years.size)
        rets[years > 2004] = -5.0  # stage 2 all zeros after thresholding
        with caplog.at_level(logging.WARNING, logger="panelbayes.spindex"):
            report = two_stage_fit(years, rets, FAST_CHAIN)
        assert list(report) == ["uninformative", "informative"]
        assert any("stage 2" in r.message for r in caplog.records)

    def test_unmixed_fits_warn(self, caplog, monkeypatch):
        # at 800 draws every fit of the surrogate stays far below 100 effective
        # draws for each reported parameter
        series = load_returns(surrogate_path())
        with caplog.at_level(logging.WARNING, logger="panelbayes.spindex"):
            report = two_stage_fit(*series, FAST_CHAIN)
        named = {re.match(r"(.+) fit: ESS of (\w+) is", r.message).groups()
                 for r in caplog.records}
        assert named == {(fit, param) for fit in ("stage 1", "uninformative", "informative")
                         for param in ("beta0", "beta1", "sigma")}
        assert all("of 800 draws, below 100" in r.message for r in caplog.records)
        caplog.clear()
        monkeypatch.setattr("panelbayes.sampler.ESS_FLOOR", 0)
        with caplog.at_level(logging.WARNING, logger="panelbayes.spindex"):
            assert two_stage_fit(*series, FAST_CHAIN) == report
        assert not caplog.records

    def test_stage1_recovers_known_parameters(self):
        # self-generated series: thresholding the returns reproduces y drawn from
        # the model with known coefficients
        b0, b1, sigma = -2.0, 0.05, 0.8
        years = np.arange(1960, 2005)
        rng = np.random.default_rng(123)
        eps = rng.normal(0.0, sigma, size=years.size)
        p = expit(b0 + b1 * (years - 1960) + eps)
        y = rng.random(years.size) < p
        rets = np.where(y, 2.0, 0.0)  # straddles the 1.4 threshold
        extra_years = np.arange(2005, 2019)
        rets_full = np.concatenate([rets, np.full(extra_years.size, 2.0)])
        cfg = ChainConfig(burn_in=2000, samples=6000, seed=9)
        report = two_stage_fit(np.concatenate([years, extra_years]), rets_full, cfg)
        # the informative stage-2 run carries the stage-1 posterior; check
        # stage-1 recovery through a direct fit of the early window instead
        from panelbayes.priors import default_uninformative
        from panelbayes.sampler import run_chain
        early = series_to_panel(years, rets)
        s1 = run_chain(early, default_uninformative(),
                       ChainConfig(burn_in=2000, samples=6000, seed=9))
        from panelbayes.sampler import summarize
        stats = summarize(s1)
        for name, truth in (("beta0", b0), ("beta1", b1), ("sigma", sigma)):
            st = stats[name]
            slack = 3.0 * (st.sd + st.sd / math.sqrt(st.ess))
            assert abs(st.mean - truth) <= slack, (name, st.mean, truth, slack)
        assert list(report) == ["uninformative", "informative"]
