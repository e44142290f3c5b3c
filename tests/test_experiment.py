import logging
import math
import multiprocessing
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from panelbayes.datagen import SimConfig, gen_panel, partition
from panelbayes.errors import ConfigError
from panelbayes.experiment import (RUNS, _t_quantile_975, execute_run, mse, replicate_ci,
                                   run_study, stage_dataset, write_tables)
from panelbayes.model import PANEL_CSV_HEADER
from panelbayes.priors import default_uninformative
from panelbayes.sampler import ChainConfig, run_chain
from panelbayes.seeding import derive_seed
from panelbayes.workers import InParent, worker_pool


def with_moments(mean, sd, n):
    """n values with exact sample mean and exact ddof-1 standard deviation."""
    base = np.linspace(-1.0, 1.0, n)
    z = (base - base.mean()) / base.std(ddof=1)
    return mean + sd * z


SMOKE_SIM = SimConfig(individuals=4, periods=4, sigma=1.0, replicates=2, seed=77)
SMOKE_CHAIN = ChainConfig(burn_in=150, samples=250, seed=0)


@pytest.fixture(scope="module")
def smoke_result():
    return run_study(SMOKE_SIM, tuple(RUNS), SMOKE_CHAIN)


class TestMse:
    def test_table1_r1_100_row(self):
        est = with_moments(-1.068, 0.157, 30)
        assert mse(est, -1.0) == pytest.approx(0.029, abs=0.001)

    def test_table5_r6_1000_row(self):
        est = with_moments(0.911, 0.086, 30)
        assert mse(est, 1.0) == pytest.approx(0.015, abs=0.001)

    def test_perfect_estimates(self):
        assert mse([1.0, 1.0, 1.0], 1.0) == 0.0

    def test_lower_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            est = rng.normal(size=rng.integers(2, 40))
            truth = rng.normal()
            m = mse(est, truth)
            assert m >= est.var(ddof=1) - 1e-15
            assert m >= (est.mean() - truth) ** 2 - 1e-15

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mse([1.0], 1.0)


class TestReplicateCi:
    def test_table1_r1_100_bounds(self):
        lcl, ucl = replicate_ci(with_moments(-1.068, 0.157, 30))
        assert round(lcl, 3) == -1.127
        assert round(ucl, 3) == -1.009

    def test_table1_r1_1000_bounds(self):
        lcl, ucl = replicate_ci(with_moments(-0.996, 0.058, 30))
        assert round(lcl, 3) == -1.018
        # the published table shows -0.975; feeding it its own rounded
        # mean/SD lands one ulp off at the third decimal
        assert ucl == pytest.approx(-0.975, abs=0.001)

    def test_zero_variance(self):
        lcl, ucl = replicate_ci(np.full(10, 2.5))
        assert (lcl, ucl) == (2.5, 2.5)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            replicate_ci([0.5])


class TestTQuantile:
    DFS = range(1, 501)

    def test_matches_scipy(self):
        for df in self.DFS:
            assert _t_quantile_975(df) == pytest.approx(sps.t.ppf(0.975, df), rel=1e-13), df

    def test_cauchy_is_exact(self):
        assert _t_quantile_975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-13)

    def test_falls_towards_the_normal_quantile(self):
        q = [_t_quantile_975(df) for df in self.DFS]
        assert all(a > b for a, b in zip(q, q[1:]))
        assert q[-1] > 1.959963984540054


class TestRunTopology:
    def quads(self):
        panel, _ = gen_panel(SimConfig(individuals=4, periods=4, sigma=1.0),
                             np.random.default_rng(1))
        return partition(panel)

    def test_design_table(self):
        assert RUNS["R1"] == ("top", "bottom")
        assert RUNS["R2"] == ("early", "late")
        assert RUNS["R3"] == ("m11", "m22")
        for rid in ("R4", "R5", "R6"):
            assert RUNS[rid][0] is None

    def test_stage_dataset_contents(self):
        q = self.quads()
        top = stage_dataset("top", q)
        assert list(top.ids) == [1, 2]
        assert list(np.unique(top.time)) == [1, 2, 3, 4]
        early = stage_dataset("early", q)
        assert list(early.ids) == [1, 2, 3, 4]
        assert list(np.unique(early.time)) == [1, 2]
        bottom = stage_dataset("bottom", q)  # R1's reported fit: second half of individuals
        assert list(bottom.ids) == [3, 4]
        late = stage_dataset("late", q)
        assert list(np.unique(late.time)) == [3, 4]

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset selector 'middle'"):
            stage_dataset("middle", self.quads())

    def test_shared_stage2_datasets_are_identical(self):
        q = self.quads()
        for a, b in [("R2", "R6"), ("R1", "R5"), ("R3", "R4")]:
            da, db = stage_dataset(RUNS[a][1], q), stage_dataset(RUNS[b][1], q)
            for col in PANEL_CSV_HEADER:
                assert np.array_equal(getattr(da, col), getattr(db, col))

    def test_r4_is_a_single_direct_fit(self):
        # R4's estimates equal a plain uninformative fit of m22 under the
        # seed execute_run derives for its stage 2
        q = self.quads()
        cfg = ChainConfig(burn_in=100, samples=200, seed=5)
        got = execute_run("R4", q, cfg)
        run_index = list(RUNS).index("R4")
        direct = run_chain(stage_dataset("m22", q), default_uninformative(),
                           replace(cfg, seed=derive_seed(cfg.seed, run_index, 2)))
        assert got["beta0"].mean == pytest.approx(float(direct.beta[:, 0].mean()), abs=0)
        assert got["sigma"].mean == pytest.approx(float(np.sqrt(direct.sigma2).mean()), abs=0)

    def test_unknown_run_rejected(self):
        with pytest.raises(ConfigError, match="R9"):
            run_study(SMOKE_SIM, ("R9",), SMOKE_CHAIN)


class TestRunStudy:
    def test_row_shape(self, smoke_result):
        assert len(smoke_result.rows) == 6 * 4
        assert len(smoke_result.estimates) == 2 * 6 * 4

    def test_mse_column_consistency(self, smoke_result):
        truth = {"beta0": -1.0, "beta1": 1.0, "beta2": 1.0, "sigma": 1.0}
        for row in smoke_result.rows:
            vals = [v for rep, rid, param, v in smoke_result.estimates
                    if rid == row.run_id and param == row.parameter]
            assert row.mse == pytest.approx(mse(vals, truth[row.parameter]), abs=1e-12)
            lcl, ucl = replicate_ci(vals)
            assert row.lcl == pytest.approx(lcl, abs=1e-12)
            assert row.ucl == pytest.approx(ucl, abs=1e-12)

    def test_unmixed_stage2_fits_warn(self, caplog, monkeypatch):
        # 250 draws on a 2x2 m22 window stay below 100 effective draws
        with caplog.at_level(logging.WARNING, logger="panelbayes.sampler"):
            res = run_study(SMOKE_SIM, ("R4",), SMOKE_CHAIN)
        labels = {re.match(r"(replicate \d+ R\d): ESS of \w+ is", r.message).group(1)
                  for r in caplog.records}
        assert labels == {"replicate 0 R4", "replicate 1 R4"}
        assert all("of 250 draws, below 100" in r.message for r in caplog.records)
        caplog.clear()
        monkeypatch.setattr("panelbayes.sampler.ESS_FLOOR", 0)
        with caplog.at_level(logging.WARNING, logger="panelbayes.sampler"):
            quiet = run_study(SMOKE_SIM, ("R4",), SMOKE_CHAIN)
        assert not caplog.records
        assert quiet.rows == res.rows

    def test_unmixed_stage1_fits_warn(self, caplog):
        # R3's stage-1 fit on the 2x2 m11 window stays below 100 effective
        # draws as well, and its warning names the stage
        with caplog.at_level(logging.WARNING, logger="panelbayes.sampler"):
            run_study(SMOKE_SIM, ("R3",), SMOKE_CHAIN)
        labels = {re.match(r"(.+): ESS of \w+ is", r.message).group(1) for r in caplog.records}
        assert labels == {f"replicate {rep} R3{stage}" for rep in (0, 1)
                          for stage in ("", " stage 1")}

    def test_chain_seed_moves_every_estimate(self):
        # the panels follow the simulation seed, the chains the chain seed
        other = run_study(SMOKE_SIM, ("R4",), replace(SMOKE_CHAIN, seed=1))
        base = run_study(SMOKE_SIM, ("R4",), SMOKE_CHAIN)
        assert len(base.estimates) == len(other.estimates) == 2 * 4
        for a, b in zip(base.estimates, other.estimates):
            assert a[:3] == b[:3] and a[3] != b[3]

    def test_parallel_matches_serial(self, smoke_result):
        with worker_pool(2) as pool:
            par = run_study(SMOKE_SIM, tuple(RUNS), SMOKE_CHAIN, pool)
        for a, b in zip(smoke_result.rows, par.rows):
            assert a == b

    def test_every_replicate_goes_through_the_pool(self, smoke_result):
        class RecordingPool(InParent):
            def __init__(self):
                self.mapped = []

            def map(self, fn, tasks):
                self.mapped += [task[-1] for task in tasks]  # each task's replicate
                return map(fn, tasks)
        pool = RecordingPool()
        assert run_study(SMOKE_SIM, tuple(RUNS), SMOKE_CHAIN, pool).rows == smoke_result.rows
        assert pool.mapped == list(range(SMOKE_SIM.replicates))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched execute_run must reach the workers")
    def test_failed_replicate_ends_the_running_ones(self, monkeypatch):
        fail_seed = derive_seed(SMOKE_CHAIN.seed, 0, 1)

        def fail_or_hang(run_id, quadrants, cfg, label):
            if cfg.seed == fail_seed:
                raise ValueError("boom")
            time.sleep(60.0)
        monkeypatch.setattr("panelbayes.experiment.execute_run", fail_or_hang)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="replicate 0 failed: boom"):
            with worker_pool(2) as pool:
                run_study(SMOKE_SIM, ("R4",), SMOKE_CHAIN, pool)
        assert time.monotonic() - start < 30.0

    def test_replicate_order_invariance(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=9)
        perm = rng.permutation(9)
        assert mse(vals, 0.3) == pytest.approx(mse(vals[perm], 0.3), abs=1e-12)
        assert replicate_ci(vals) == pytest.approx(replicate_ci(vals[perm]), abs=1e-12)

    def test_table_emission(self, smoke_result, tmp_path):
        paths = write_tables(smoke_result, str(tmp_path))
        names = {p.split("/")[-1] for p in paths}
        assert names == {"table_beta0.csv", "table_beta1.csv", "table_beta2.csv",
                         "table_sigma.csv", "estimates.csv"}
        lines = (tmp_path / "table_beta1.csv").read_text().strip().split("\n")
        assert lines[0] == "run,N,mean,sd,lcl,ucl,mse"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["R1", "R2", "R3", "R4", "R5", "R6"]
        assert all(ln.split(",")[1] == "4" for ln in lines[1:])  # N column = individuals
        est_lines = (tmp_path / "estimates.csv").read_text().strip().split("\n")
        assert est_lines[0] == "replicate,run,parameter,estimate"
        assert len(est_lines) - 1 == len(smoke_result.estimates)
