from dataclasses import replace

import numpy as np
import pytest

from panelbayes import (RUNS, ChainConfig, SimConfig, derive_seed, execute_run,
                        gen_panel, mse, partition, replicate_ci, run_chain,
                        run_study, stage_dataset, write_tables)
from panelbayes.priors import default_uninformative


def with_moments(mean, sd, n):
    """n values with exact sample mean and exact ddof-1 standard deviation."""
    base = np.linspace(-1.0, 1.0, n)
    z = (base - base.mean()) / base.std(ddof=1)
    return mean + sd * z


SMOKE_SIM = SimConfig(individuals=4, periods=4, sigma=1.0, replicates=2, seed=77)
SMOKE_CHAIN = ChainConfig(burn_in=150, samples=250, seed=0)


@pytest.fixture(scope="module")
def smoke_result():
    return run_study(SMOKE_SIM, tuple(RUNS), SMOKE_CHAIN, jobs=1)


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


class TestRunTopology:
    def quads(self):
        panel, _ = gen_panel(SimConfig(individuals=4, periods=4, sigma=1.0),
                             np.random.default_rng(1))
        return partition(panel)

    def test_design_table(self):
        assert RUNS["R1"].stage1 == "top" and RUNS["R1"].stage2 == "bottom"
        assert RUNS["R2"].stage1 == "early" and RUNS["R2"].stage2 == "late"
        assert RUNS["R3"].stage1 == "m11" and RUNS["R3"].stage2 == "m22"
        for rid in ("R4", "R5", "R6"):
            assert RUNS[rid].stage1 is None

    def test_stage_dataset_contents(self):
        q = self.quads()
        top = stage_dataset("top", q)
        assert list(top.ids) == [1, 2]
        assert list(top.times()) == [1, 2, 3, 4]
        early = stage_dataset("early", q)
        assert list(early.ids) == [1, 2, 3, 4]
        assert list(early.times()) == [1, 2]
        bottom = stage_dataset("bottom", q)  # R1's reported fit: second half of individuals
        assert list(bottom.ids) == [3, 4]
        late = stage_dataset("late", q)
        assert list(late.times()) == [3, 4]

    def test_shared_stage2_datasets_are_identical(self):
        q = self.quads()
        assert (stage_dataset(RUNS["R2"].stage2, q).content_hash()
                == stage_dataset(RUNS["R6"].stage2, q).content_hash())
        assert (stage_dataset(RUNS["R1"].stage2, q).content_hash()
                == stage_dataset(RUNS["R5"].stage2, q).content_hash())
        assert (stage_dataset(RUNS["R3"].stage2, q).content_hash()
                == stage_dataset(RUNS["R4"].stage2, q).content_hash())

    def test_r4_is_a_single_direct_fit(self):
        # R4's estimates equal a plain uninformative fit of m22 under the
        # seed execute_run derives for its stage 2
        q = self.quads()
        cfg = ChainConfig(burn_in=100, samples=200, seed=5)
        got = execute_run("R4", q, cfg)
        run_index = list(RUNS).index("R4")
        direct = run_chain(stage_dataset("m22", q), default_uninformative(),
                           replace(cfg, seed=derive_seed(cfg.seed, run_index, 2)))
        assert got["beta0"] == pytest.approx(float(direct.beta[:, 0].mean()), abs=0)
        assert got["sigma"] == pytest.approx(float(np.sqrt(direct.sigma2).mean()), abs=0)

    def test_unknown_run_rejected(self):
        with pytest.raises(ValueError):
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

    def test_parallel_matches_serial(self, smoke_result):
        par = run_study(SMOKE_SIM, tuple(RUNS), SMOKE_CHAIN, jobs=2)
        for a, b in zip(smoke_result.rows, par.rows):
            assert a == b

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
