import contextlib
import csv
import errno
import hashlib
import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import panelbayes
from panelbayes import cli, sampler
from panelbayes.cli import main
from panelbayes.datagen import SimConfig
from panelbayes.errors import ConfigError
from panelbayes.experiment import PARAMETERS, run_study
from panelbayes.model import PANEL_CSV_HEADER, PanelDataset, concat_panels
from panelbayes.sampler import ChainConfig, PosteriorSamples, SummaryStats
from panelbayes.spindex import surrogate_path
from panelbayes.workers import InParent

FIT_FLAGS = ["--burn-in", "200", "--samples", "400", "--seed", "7"]

needs_a_worker = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="reads /proc, and a worker beside the parent needs 2 usable CPUs")


def write_gen_config(path, **overrides):
    values = {"individuals": 4, "periods": 4, "sigma": 1.0, "seed": 99}
    values.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


def no_chain(*args, **kwargs):
    raise AssertionError("a chain ran")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def record_worker_pools(monkeypatch):
    """The worker count of every pool the CLI opens from now on, in order."""
    pools, worker_pool = [], cli.worker_pool

    def recorded(workers):
        pools.append(workers)
        return worker_pool(workers)
    monkeypatch.setattr(cli, "worker_pool", recorded)
    return pools


@pytest.fixture()
def panel_csv(tmp_path):
    cfg = write_gen_config(tmp_path / "gen.kv")
    out = tmp_path / "panel.csv"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_panel_and_sidecar(self, tmp_path, panel_csv):
        rows = read_csv(panel_csv)
        assert rows[0] == ["individual", "time", "y", "x1", "x2"]
        assert len(rows) - 1 == 4 * 4
        truth = (tmp_path / "panel.csv.truth").read_text()
        assert "sigma = 1.0" in truth
        assert "epsilon.4 = " in truth

    def test_chain_key_rejected(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "gen.kv", burn_in=100)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
        assert f"{cfg}: unknown key 'burn_in'" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_odd_individuals_is_config_error(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "bad.kv", individuals=5)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
        assert (capsys.readouterr().err
                == f"error: {cfg}: individuals must be even and >= 2, got 5\n")

    def test_zero_replicates_is_config_error(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "bad.kv", replicates=0)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: replicates must be >= 1, got 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.kv"]

    def test_non_finite_value_is_config_error(self, tmp_path, capsys):
        for key, value in [("sigma", "inf"), ("beta0", "nan")]:
            cfg = write_gen_config(tmp_path / "bad.kv", **{key: value})
            assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
            assert f"{cfg}: key {key!r} is not a finite number" in capsys.readouterr().err
            assert not (tmp_path / "p.csv").exists()

    def test_config_with_byte_order_mark(self, tmp_path):
        # a config saved with a leading UTF-8 byte-order mark reads as without it
        cfg = write_gen_config(tmp_path / "gen.kv")
        marked = tmp_path / "bom.kv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(cfg).read_bytes())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", str(marked), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_takes_any_integer(self, tmp_path):
        # seeds are masked to 64 bits, so one beyond int64 is the same stream
        cfg = write_gen_config(tmp_path / "gen.kv", seed=2 ** 64 + 99)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_determinism(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.kv")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.truth").read_bytes() == (tmp_path / "b.csv.truth").read_bytes()

    def test_replicate_changes_stream(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.kv")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", cfg, "--out", str(a), "--replicate", "0"]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b), "--replicate", "1"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_replicate_is_the_panel_study_fits(self, tmp_path, monkeypatch):
        cfg = write_gen_config(tmp_path / "gen.kv")
        out = tmp_path / "p.csv"
        assert main(["gen", "--config", cfg, "--out", str(out), "--replicate", "1"]) == 0
        fitted = []

        def capture(run_id, quadrants, chain_config):
            fitted.append(concat_panels(quadrants.m11, quadrants.m12, quadrants.m21, quadrants.m22))
            return {p: SummaryStats(0.0, 1.0, -1.0, 1.0, 1e9) for p in PARAMETERS}
        monkeypatch.setattr("panelbayes.experiment.execute_run", capture)
        sim = SimConfig(individuals=4, periods=4, sigma=1.0, replicates=2, seed=99)
        run_study(sim, ("R4",), ChainConfig(burn_in=10, samples=10))
        written = PanelDataset.from_csv(str(out))
        assert len(fitted) == 2  # one R4 fit per replicate, replicate 0 first
        for col in PANEL_CSV_HEADER:
            assert np.array_equal(getattr(fitted[1], col), getattr(written, col))
        assert not np.array_equal(fitted[0].x2, written.x2)

    def test_out_path_rejected_before_anything_is_generated(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr("panelbayes.datagen.gen_panel", no_chain)
        cfg = write_gen_config(tmp_path / "gen.kv")
        assert main(["gen", "--config", cfg, "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out: empty path\n"
        missing = tmp_path / "missing"
        assert main(["gen", "--config", cfg, "--out", str(missing / "p.csv")]) == 1
        assert capsys.readouterr().err == f"error: --out: directory {str(missing)!r} does not exist\n"
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --out: {str(tmp_path)!r} is a directory\n"
        truth = tmp_path / "p.csv.truth"
        truth.mkdir()
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == f"error: --out: {str(truth)!r} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.kv", "p.csv.truth"]
        assert list(truth.iterdir()) == []

    def test_out_naming_the_config_rejected_before_anything_is_generated(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.datagen.gen_panel", no_chain)
        cfg = write_gen_config(tmp_path / "gen.kv")
        assert main(["gen", "--config", cfg, "--out", cfg]) == 1
        assert capsys.readouterr().err == f"error: --out: {cfg!r} is the same file as --config\n"
        truth = write_gen_config(tmp_path / "p.csv.truth")
        assert main(["gen", "--config", truth, "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == (f"error: --out: {truth!r} is the same file "
                                           f"as --config\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.kv", "p.csv.truth"]
        assert (tmp_path / "gen.kv").read_text() == (tmp_path / "p.csv.truth").read_text()

    def test_negative_replicate_rejected(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "gen.kv")
        out = tmp_path / "p.csv"
        assert main(["gen", "--config", cfg, "--out", str(out), "--replicate", "-1"]) == 1
        assert capsys.readouterr().err == "error: --replicate: replicate must be >= 0, got -1\n"
        cfg = write_gen_config(tmp_path / "gen.kv", replicate=-2)
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: replicate must be >= 0, got -2\n"
        assert not out.exists()


class TestFit:
    def test_summary_layout(self, tmp_path, panel_csv):
        out = tmp_path / "summary.csv"
        assert main(["fit", "--data", str(panel_csv), "--out", str(out)] + FIT_FLAGS) == 0
        rows = read_csv(out)
        assert rows[0] == ["parameter", "mean", "sd", "lcl", "ucl", "ess"]
        assert [r[0] for r in rows[1:]] == ["beta0", "beta1", "beta2", "sigma"]

    def test_unmixed_parameters_warn(self, tmp_path, panel_csv, caplog):
        # 50 kept draws can never hold 100 effective ones
        out = tmp_path / "summary.csv"
        with caplog.at_level(logging.WARNING, logger="panelbayes.sampler"):
            assert main(["fit", "--data", str(panel_csv), "--out", str(out),
                         "--burn-in", "200", "--samples", "50", "--seed", "7"]) == 0
        named = [re.match(r"fit: ESS of (\w+) is [0-9.]+ of 50 draws, below 100; ",
                          r.message).group(1) for r in caplog.records]
        assert named == ["beta0", "beta1", "beta2", "sigma"]

    def test_cpu_count_never_changes_the_output(self, tmp_path, panel_csv, monkeypatch):
        # with 2 CPUs the second sampling segment runs in a worker, with 1 here
        pools = record_worker_pools(monkeypatch)
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda cpus=cpus: cpus)
            out, draws = tmp_path / f"summary{cpus}.csv", tmp_path / f"draws{cpus}.csv"
            assert main(["fit", "--data", str(panel_csv), "--out", str(out),
                         "--draws-out", str(draws), "--burn-in", "200", "--samples", "301",
                         "--thin", "3", "--seed", "7"]) == 0
            written.append((out.read_bytes(), draws.read_bytes()))
        assert pools == [0, 1]
        assert written[0] == written[1]

    def test_pool_runs_only_the_second_segment(self, tmp_path, panel_csv, monkeypatch):
        # the parent writes every output, the draws CSV included
        class RecordingPool(InParent):
            def __init__(self):
                self.submitted = []

            def submit(self, fn, *args):
                self.submitted.append(fn)
                return super().submit(fn, *args)
        pool = RecordingPool()
        monkeypatch.setattr(cli, "worker_pool", lambda workers: contextlib.nullcontext(pool))
        assert main(["fit", "--data", str(panel_csv), "--out", str(tmp_path / "s.csv"),
                     "--priors-out", str(tmp_path / "p.kv"),
                     "--draws-out", str(tmp_path / "d.csv")] + FIT_FLAGS) == 0
        assert pool.submitted == [sampler._sample]

    @needs_a_worker
    def test_sigterm_stops_the_worker(self, panel_csv):
        assert_sigterm_stops_the_worker(["fit", "--data", str(panel_csv), "--burn-in", "2000",
                                         "--samples", "1000", "--thin", "100000"])

    def test_missing_file(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_seed_determinism(self, tmp_path, panel_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fit", "--data", str(panel_csv), "--out", str(a)] + FIT_FLAGS) == 0
        assert main(["fit", "--data", str(panel_csv), "--out", str(b)] + FIT_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_priors_round_trip(self, tmp_path, panel_csv):
        summary1 = tmp_path / "s1.csv"
        priors = tmp_path / "priors.kv"
        assert main(["fit", "--data", str(panel_csv), "--out", str(summary1),
                     "--priors-out", str(priors)] + FIT_FLAGS) == 0
        # the stored prior means must equal the first fit's posterior means
        posterior_means = {r[0]: float(r[1]) for r in read_csv(summary1)[1:]}
        stored = dict(line.split(" = ") for line in priors.read_text().splitlines()
                      if " = " in line)
        for k in range(3):
            assert float(stored[f"beta{k}.mean"]) == posterior_means[f"beta{k}"]
        # and a refit accepts them
        summary2 = tmp_path / "s2.csv"
        assert main(["fit", "--data", str(panel_csv), "--priors-in", str(priors),
                     "--out", str(summary2)] + FIT_FLAGS) == 0
        assert summary2.exists()

    def test_config_file_with_flag_override(self, tmp_path, panel_csv):
        chain_cfg = tmp_path / "chain.kv"
        chain_cfg.write_text("burn_in = 200\nsamples = 400\nseed = 7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fit", "--data", str(panel_csv), "--config", str(chain_cfg),
                     "--out", str(a)]) == 0
        assert main(["fit", "--data", str(panel_csv), "--out", str(b)] + FIT_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert main(["fit", "--data", str(panel_csv), "--config", str(chain_cfg),
                     "--seed", "8", "--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_tuning_constants_are_not_settable(self, tmp_path, panel_csv, capsys):
        flags = ["--data", str(panel_csv), "--out", str(tmp_path / "s.csv")]
        assert main(["fit", "--adapt-window", "10"] + flags + FIT_FLAGS) == 1
        assert "--adapt-window" in capsys.readouterr().err
        chain_cfg = tmp_path / "chain.kv"
        for key, value in (("adapt_window", "10"), ("target_accept_block", "0.3"),
                           ("target_accept_scalar", "0.5"), ("individuals", "4")):
            chain_cfg.write_text(f"burn_in = 200\nsamples = 400\n{key} = {value}\n")
            assert main(["fit", "--config", str(chain_cfg)] + flags) == 1
            assert f"{chain_cfg}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_draws_out(self, tmp_path, panel_csv):
        draws = tmp_path / "draws.csv"
        assert main(["fit", "--data", str(panel_csv), "--draws-out", str(draws),
                     "--out", str(tmp_path / "s.csv")] + FIT_FLAGS) == 0
        rows = read_csv(draws)
        assert rows[0] == ["iteration", "parameter", "value"]
        assert len(rows) - 1 == 400 * 4

    def test_priors_failure_writes_nothing(self, tmp_path, panel_csv, capsys, monkeypatch):
        # every result is computed before the first file is written
        def cannot_carry(samples):
            raise ValueError("cannot carry beta0 forward: degenerate sample: all values identical")
        monkeypatch.setattr("panelbayes.cli.posterior_to_priorset", cannot_carry)
        outs = ["--priors-out", str(tmp_path / "pr.kv"), "--draws-out", str(tmp_path / "d.csv")]
        for args in (["--out", str(tmp_path / "s.csv")] + outs, outs):
            assert main(["fit", "--data", str(panel_csv)] + args + FIT_FLAGS) == 2
            captured = capsys.readouterr()
            assert captured.err == ("runtime failure: cannot carry beta0 forward: "
                                    "degenerate sample: all values identical\n")
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.kv", "panel.csv",
                                                                  "panel.csv.truth"]

    def test_stdout_matches_out_file(self, tmp_path, panel_csv, capsys):
        out = tmp_path / "s.csv"
        assert main(["fit", "--data", str(panel_csv), "--out", str(out)] + FIT_FLAGS) == 0
        capsys.readouterr()
        assert main(["fit", "--data", str(panel_csv)] + FIT_FLAGS) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_negative_seed_is_masked_to_64_bits(self, tmp_path, panel_csv):
        # like gen/study/spindex: -1 and 2**64 - 1 name the same stream
        flags = ["--data", str(panel_csv), "--burn-in", "200", "--samples", "400"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fit", "--out", str(a), "--seed", "-1"] + flags) == 0
        assert main(["fit", "--out", str(b), "--seed", str(2**64 - 1)] + flags) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_priors_file_exit_code(self, tmp_path, panel_csv, capsys):
        bad = tmp_path / "bad.kv"
        bad.write_text("beta0.mean 0\n")
        assert main(["fit", "--data", str(panel_csv), "--priors-in", str(bad)]) == 1
        # a priors file rejects a key it does not hold, as a config file does
        typo = tmp_path / "typo.kv"
        assert main(["fit", "--data", str(panel_csv), "--priors-out", str(typo),
                     "--out", str(tmp_path / "s.csv")] + FIT_FLAGS) == 0
        typo.write_text(typo.read_text() + "sigma.shape = 50\n")
        capsys.readouterr()
        assert main(["fit", "--data", str(panel_csv), "--priors-in", str(typo)] + FIT_FLAGS) == 1
        assert f"{typo}: unknown key 'sigma.shape'" in capsys.readouterr().err

    def test_one_sample_rejected_before_any_chain(self, tmp_path, panel_csv, capsys,
                                                  monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        assert main(["fit", "--data", str(panel_csv), "--burn-in", "10", "--samples", "1"]) == 1
        assert "samples must be >= 2" in capsys.readouterr().err

    def test_bad_chain_value_names_its_source(self, tmp_path, panel_csv, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        cfg = tmp_path / "chain.kv"
        cfg.write_text("samples = 1\nthin = 2\n")
        assert main(["fit", "--data", str(panel_csv), "--config", str(cfg)]) == 1
        assert f"{cfg}: samples must be >= 2" in capsys.readouterr().err
        # a flag overrides the file, and a bad flag value names the flag
        for flag, value, message in [("--thin", "0", "thin must be >= 1"),
                                     ("--burn-in", "-1", "burn_in must be >= 0"),
                                     ("--samples", "0", "samples must be >= 2")]:
            assert main(["fit", "--data", str(panel_csv), "--config", str(cfg),
                         "--samples", "50", flag, value]) == 1
            assert capsys.readouterr().err == f"error: {flag}: {message}\n"

    def test_chain_lengths_beyond_the_memory_bound_are_config_errors(self, tmp_path, panel_csv,
                                                                     capsys, monkeypatch):
        # a chain keeps 24 bytes per burn-in sweep and 32 per kept draw, at
        # most 1 GiB each; a larger setting names its flag or file, exit 1
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        burn_in = "burn_in must be <= 44739242 (24 bytes each, at most 1 GiB)"
        samples = "samples must be <= 33554432 (32 bytes each, at most 1 GiB)"
        for args, message in [(["--burn-in", "99999999999999999999", "--samples", "10"],
                               f"--burn-in: {burn_in}"),
                              (["--burn-in", "44739243"], f"--burn-in: {burn_in}"),
                              (["--samples", "33554433"], f"--samples: {samples}")]:
            assert main(["fit", "--data", str(panel_csv)] + args) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        cfg = tmp_path / "chain.kv"
        cfg.write_text("burn_in = 99999999999999999999\n")
        assert main(["fit", "--data", str(panel_csv), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {burn_in}\n"

    def test_long_individual_beside_singles_fits(self, tmp_path, capsys):
        # one individual of 200 observations beside 400 of one
        rng = np.random.default_rng(13)
        counts = np.r_[200, np.ones(400, dtype=int)]
        ind = np.repeat(np.arange(counts.size), counts)
        time = np.concatenate([np.arange(1, c + 1) for c in counts])
        panel = tmp_path / "ragged.csv"
        PanelDataset(ind, time, rng.integers(0, 2, ind.size), rng.normal(0.0, 2.0, ind.size),
                     rng.normal(0.0, 1.0, ind.size)).to_csv(str(panel))
        out = tmp_path / "summary.csv"
        assert main(["fit", "--data", str(panel), "--out", str(out)] + FIT_FLAGS) == 0
        assert [r[0] for r in read_csv(out)[1:]] == ["beta0", "beta1", "beta2", "sigma"]

    def test_numeric_failure_exit_code(self, tmp_path, panel_csv):
        # finite but extreme IG parameters overflow the starting log posterior
        huge_priors = tmp_path / "huge.kv"
        huge_priors.write_text(priors_text(**{"sigma2.shape": 1e308, "sigma2.scale": 1e308}))
        assert main(["fit", "--data", str(panel_csv),
                     "--priors-in", str(huge_priors)] + FIT_FLAGS) == 2

    def test_out_of_range_prior_is_config_error(self, tmp_path, panel_csv, capsys):
        bad = tmp_path / "bad.kv"
        bad.write_text(priors_text(**{"beta0.variance": -1}))
        assert main(["fit", "--data", str(panel_csv), "--priors-in", str(bad)] + FIT_FLAGS) == 1
        assert f"{bad}: variance must be positive" in capsys.readouterr().err

    def test_panel_without_rows_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        empty = tmp_path / "empty.csv"
        empty.write_text("individual,time,y,x1,x2\n")
        assert main(["fit", "--data", str(empty)] + FIT_FLAGS) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: no observations to fit\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--out", "--priors-out", "--draws-out"])
    def test_out_path_rejected_before_any_chain(self, tmp_path, panel_csv, capsys,
                                                 monkeypatch, flag):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        outs = {f: str(tmp_path / f"{f[2:]}.txt") for f in ("--out", "--priors-out", "--draws-out")}
        outs[flag] = ""
        args = [a for f, path in outs.items() for a in (f, path)]
        assert main(["fit", "--data", str(panel_csv)] + args + FIT_FLAGS) == 1
        assert capsys.readouterr().err == f"error: {flag}: empty path\n"
        missing = tmp_path / "missing"
        outs[flag] = str(missing / "file.csv")
        args = [a for f, path in outs.items() for a in (f, path)]
        assert main(["fit", "--data", str(panel_csv)] + args + FIT_FLAGS) == 1
        assert capsys.readouterr().err == f"error: {flag}: directory {str(missing)!r} does not exist\n"
        outs[flag] = str(tmp_path)
        args = [a for f, path in outs.items() for a in (f, path)]
        assert main(["fit", "--data", str(panel_csv)] + args + FIT_FLAGS) == 1
        assert capsys.readouterr().err == f"error: {flag}: {str(tmp_path)!r} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.kv", "panel.csv",
                                                              "panel.csv.truth"]

    def test_output_naming_an_input_or_another_output_rejected_before_any_chain(
            self, tmp_path, panel_csv, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        config, priors = tmp_path / "chain.kv", tmp_path / "priors.kv"
        config.write_text("burn_in = 200\n")
        priors.write_text(priors_text())
        (tmp_path / "link.csv").symlink_to(panel_csv)
        (tmp_path / "sub").mkdir()
        data = str(panel_csv)
        for outs, flags in [
                (["--out", data], ("--out", "--data")),
                (["--draws-out", str(tmp_path / "link.csv")], ("--draws-out", "--data")),
                (["--out", str(tmp_path / "same.csv"),
                  "--draws-out", str(tmp_path / "sub" / ".." / "same.csv")],
                 ("--draws-out", "--out")),
                (["--priors-out", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.csv")],
                 ("--priors-out", "--out")),
                (["--priors-out", str(priors)], ("--priors-out", "--priors-in")),
                (["--out", str(config)], ("--out", "--config"))]:
            assert main(["fit", "--data", data, "--config", str(config),
                         "--priors-in", str(priors)] + outs + FIT_FLAGS) == 1
            flag, other = flags
            err = capsys.readouterr().err
            assert re.fullmatch(f"error: {flag}: '.*' is the same file as {other}\n", err), err
        assert panel_csv.read_text().startswith("individual,time,y,x1,x2\n")
        assert (config.read_text(), priors.read_text()) == ("burn_in = 200\n", priors_text())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chain.kv", "gen.kv", "link.csv", "panel.csv", "panel.csv.truth", "priors.kv", "sub"]

    def test_uninformative_priors_are_no_input_file(self, tmp_path, panel_csv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--data", str(panel_csv), "--priors-in", "uninformative",
                     "--out", "uninformative"] + FIT_FLAGS) == 0
        assert read_csv(tmp_path / "uninformative")[0][0] == "parameter"

    def test_bad_cell_is_config_error_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        panel = tmp_path / "panel.csv"
        for row, message in [
                ("1,2,yes,0.5,0.2", "column 'y' is not 0 or 1: 'yes'"),
                # beyond int64, where the panel's integer columns are held
                ("99999999999999999999,2,1,0.5,0.2",
                 "column 'individual' is not a 64-bit integer: '99999999999999999999'")]:
            panel.write_text(f"individual,time,y,x1,x2\n1,1,1,0.5,0.2\n{row}\n")
            assert main(["fit", "--data", str(panel), "--out", str(tmp_path / "s.csv")]
                        + FIT_FLAGS) == 1
            assert capsys.readouterr().err == f"error: {panel}:3: {message}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]

    def test_numbers_take_ascii_digits_only(self, tmp_path, panel_csv, capsys, monkeypatch):
        # digit-group underscores and non-ASCII digits, which int() and
        # float() take, are no number in a flag or a key
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        fit = ["fit", "--data", str(panel_csv)]
        for flag, value in [("--burn-in", "1_0"), ("--samples", "\u0661\u0660"),
                            ("--thin", "1_0"), ("--seed", "1_0")]:
            assert main(fit + [flag, value]) == 1
            assert (capsys.readouterr().err
                    == f"error: usage error: argument {flag}: invalid integer value: {value!r}\n")
        cfg = tmp_path / "chain.kv"
        cfg.write_text("samples = 1_0\n")
        assert main(fit + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: key 'samples' is not an integer: '1_0'\n"
        priors = tmp_path / "priors.kv"
        priors.write_text(priors_text(**{"beta0.mean": "0_5"}))
        assert main(fit + ["--priors-in", str(priors)]) == 1
        assert (capsys.readouterr().err
                == f"error: {priors}: key 'beta0.mean' is not a finite number: '0_5'\n")

    def test_non_finite_prior_is_config_error(self, tmp_path, panel_csv, capsys):
        for key, value in [("beta0.mean", "nan"), ("beta0.variance", "inf"),
                           ("sigma2.scale", "inf")]:
            bad = tmp_path / "bad.kv"
            bad.write_text(priors_text(**{key: value}))
            assert main(["fit", "--data", str(panel_csv), "--priors-in", str(bad)] + FIT_FLAGS) == 1
            assert f"{bad}: key {key!r} is not a finite number" in capsys.readouterr().err


def priors_text(**overrides):
    values = {"beta0.mean": 0.0, "beta0.variance": 1.0, "beta1.mean": 0.0, "beta1.variance": 1.0,
              "beta2.mean": 0.0, "beta2.variance": 1.0, "sigma2.shape": 2.0, "sigma2.scale": 1.0}
    values.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def src_env():
    """Environment for a child interpreter that imports this panelbayes."""
    return {**os.environ, "PYTHONPATH": str(Path(panelbayes.__file__).resolve().parents[1])}


def proc_stat(pid):
    """(state, parent pid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def live_children(pid):
    return [int(e) for e in os.listdir("/proc") if e.isdigit()
            and (st := proc_stat(e)) is not None and st[1] == pid and st[0] != "Z"]


def alive(pid):
    st = proc_stat(pid)
    return st is not None and st[0] != "Z"


def assert_sigterm_stops_the_worker(args):
    """Run the CLI with `args`, send it SIGTERM once its one worker is up, and
    check that it exits 143 and leaves no worker behind."""
    proc = subprocess.Popen([sys.executable, "-m", "panelbayes.cli"] + args,
                            env=src_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while not workers and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = live_children(proc.pid)
        assert len(workers) == 1
        proc.send_signal(signal.SIGTERM)
        # a chain takes far longer than this, so none may run to its end
        assert proc.wait(timeout=10) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 5.0
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [w for w in workers if alive(w)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for w in workers:
            if alive(w):
                os.kill(w, signal.SIGKILL)


def write_study_config(path, outdir, **overrides):
    values = {"individuals": 4, "periods": 4, "sigma": 1.0, "replicates": 2,
              "seed": 31, "burn_in": 150, "samples": 250, "runs": "R1,R2,R3,R4,R5,R6",
              "jobs": 2, "out": outdir}
    values.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["fit", "spindex", "study"])
def test_sigterm_on_one_cpu_exits_143(tmp_path, panel_csv, command):
    # on one CPU every chain runs in this process; SIGTERM arrives in the first sweep
    argv = {"fit": ["fit", "--data", str(panel_csv)] + FIT_FLAGS,
            "spindex": ["spindex"] + FIT_FLAGS,
            "study": ["study", "--config", write_study_config(tmp_path / "study.kv",
                                                              str(tmp_path / "out")),
                      "--jobs", "1"]}[command]
    code = ("import os, signal, sys\n"
            "from panelbayes import sampler\n"
            "from panelbayes.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "sweep = sampler._Chain.sweep\n"
            "def stop_then_sweep(*args, **kwargs):\n"
            "    sampler._Chain.sweep = sweep\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return sweep(*args, **kwargs)\n"
            "sampler._Chain.sweep = stop_then_sweep\n"
            "try:\n"
            "    sys.exit(main(sys.argv[1:]))\n"
            "finally:\n"
            "    print('multiprocessing' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code] + argv, capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (128 + signal.SIGTERM, "", "False\n")
    assert not (tmp_path / "out").exists()


class TestStudy:
    def test_emits_tables(self, tmp_path, capsys):
        import time
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"))
        start = time.time()
        assert main(["study", "--config", cfg]) == 0
        assert time.time() - start < 60.0  # smoke config stays interactive
        outdir = tmp_path / "out"
        for param in ("beta0", "beta1", "beta2", "sigma"):
            rows = read_csv(outdir / f"table_{param}.csv")
            assert rows[0] == ["run", "N", "mean", "sd", "lcl", "ucl", "mse"]
            assert [r[0] for r in rows[1:]] == ["R1", "R2", "R3", "R4", "R5", "R6"]
        assert (outdir / "estimates.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "o1"),
                                 runs="R3,R4", replicates=2)
        assert main(["study", "--config", cfg]) == 0
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
        for name in ("table_beta1.csv", "estimates.csv"):
            assert ((tmp_path / "o1" / name).read_bytes()
                    == (tmp_path / "o2" / name).read_bytes())

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "j1"),
                                 runs="R4", replicates=3)
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 0
        assert main(["study", "--config", cfg, "--jobs", "2", "--out", str(tmp_path / "j2")]) == 0
        assert ((tmp_path / "j1" / "estimates.csv").read_bytes()
                == (tmp_path / "j2" / "estimates.csv").read_bytes())

    def test_jobs_capped_by_cpu_affinity(self, tmp_path, monkeypatch):
        def stop(sim, run_ids, chain, pool):
            raise ConfigError("stopped")
        monkeypatch.setattr("panelbayes.cli.run_study", stop)
        pools = record_worker_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), jobs=2)
        assert main(["study", "--config", cfg]) == 1
        assert main(["study", "--config", cfg, "--jobs", "2"]) == 1
        assert pools == [0, 0]  # one CPU: the replicates run in this process

    def test_no_more_workers_than_replicates(self, tmp_path, monkeypatch):
        # a pool starts every worker on its first task, so a third and fourth would idle
        pools = record_worker_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), runs="R4",
                                 replicates=2, jobs=4)
        assert main(["study", "--config", cfg]) == 0
        assert pools == [2]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="a 2-worker pool needs 2 usable CPUs")
    def test_sigterm_stops_the_workers(self, tmp_path):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), individuals=20,
                                 periods=12, replicates=4, runs="R4", burn_in=2000,
                                 samples=1000000, jobs=2)
        proc = subprocess.Popen([sys.executable, "-m", "panelbayes.cli", "study", "--config", cfg],
                                env=src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.05)
                workers = live_children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            # a replicate takes far longer than this, so none may run to its end
            assert proc.wait(timeout=10) == 128 + signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while any(map(alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [w for w in workers if alive(w)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for w in workers:
                if alive(w):
                    os.kill(w, signal.SIGKILL)

    def test_bad_run_id(self, tmp_path, capsys):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), runs="R7")
        assert main(["study", "--config", cfg]) == 1
        assert (capsys.readouterr().err
                == f"error: {cfg}: unknown run id 'R7' (known: R1, R2, R3, R4, R5, R6)\n")

    def test_repeated_run_id_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate was generated")
        monkeypatch.setattr("panelbayes.datagen.gen_panel", no_replicate)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), runs="R4,R4")
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert "run id 'R4' is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_run_list_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate was generated")
        monkeypatch.setattr("panelbayes.datagen.gen_panel", no_replicate)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), runs=",")
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert "no run ids given" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_replicate_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), replicates=1)
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: replicates must be >= 2 for the "
                                           f"across-replicate table, got 1\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        for key in ("burnin", "adapt_window", "replicate"):
            cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), **{key: 100})
            assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
            assert f"{cfg}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_value_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), beta1="nan")
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert f"{cfg}: key 'beta1' is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_below_one_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        for jobs in (0, -7):
            cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), jobs=jobs)
            assert main(["study", "--config", cfg]) == 1
            assert f"{cfg}: jobs must be >= 1" in capsys.readouterr().err
            cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"))
            assert main(["study", "--config", cfg, "--jobs", str(jobs)]) == 1
            assert capsys.readouterr().err == "error: --jobs: jobs must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"))
        assert "thin" not in Path(cfg).read_text()
        assert main(["study", "--config", cfg, "--thin", "0"]) == 1
        assert capsys.readouterr().err == "error: --thin: thin must be >= 1\n"
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), thin=0)
        assert main(["study", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: thin must be >= 1\n"
        assert main(["study", "--config", cfg, "--thin", "3", "--jobs", "0"]) == 1
        assert capsys.readouterr().err == "error: --jobs: jobs must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_out_file_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        cfg = write_study_config(tmp_path / "study.kv", str(out))
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: output directory {str(out)!r} "
                                           f"exists and is not a directory\n")
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "elsewhere"))
        assert main(["study", "--config", cfg, "--jobs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: --out: output directory {str(out)!r} "
                                           f"exists and is not a directory\n")
        assert out.read_text() == "not a directory\n"

    def test_out_under_a_file_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        afile = tmp_path / "afile"
        afile.write_text("a file\n")
        out = str(afile / "sub" / "deeper")
        cfg = write_study_config(tmp_path / "study.kv", out)
        for flags, where in [([], cfg), (["--out", out], "--out")]:
            assert main(["study", "--config", cfg, "--jobs", "1"] + flags) == 1
            assert capsys.readouterr().err == (f"error: {where}: output directory {out!r} is "
                                               f"under {str(afile)!r}, which is not a directory\n")
        assert afile.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "study.kv"]

    def test_table_that_is_a_directory_rejected_before_any_chain(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        out = tmp_path / "o3"
        (out / "table_sigma.csv").mkdir(parents=True)
        cfg = write_study_config(tmp_path / "study.kv", str(out))
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert (capsys.readouterr().err
                == f"error: {cfg}: {str(out / 'table_sigma.csv')!r} is a directory\n")
        assert [p.name for p in out.iterdir()] == ["table_sigma.csv"]

    def test_table_naming_the_config_rejected_before_any_chain(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        out = tmp_path / "o2"
        out.mkdir()
        cfg = write_study_config(out / "estimates.csv", str(tmp_path / "elsewhere"))
        text = Path(cfg).read_text()
        assert main(["study", "--config", cfg, "--jobs", "1", "--out", str(out)]) == 1
        assert (capsys.readouterr().err == f"error: --out: {str(out / 'estimates.csv')!r} "
                                           f"is the same file as --config\n")
        # through a link, and with the directory named in the config itself
        (tmp_path / "link").symlink_to(out)
        cfg = write_study_config(out / "table_beta2.csv", str(tmp_path / "link"))
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert (capsys.readouterr().err == f"error: {cfg}: "
                                           f"{str(tmp_path / 'link' / 'table_beta2.csv')!r} "
                                           f"is the same file as --config\n")
        assert Path(out / "estimates.csv").read_text() == text
        assert sorted(p.name for p in out.iterdir()) == ["estimates.csv", "table_beta2.csv"]

    def test_no_output_directory_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", "unused")
        Path(cfg).write_text(Path(cfg).read_text().replace("out = unused\n", ""))
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert (capsys.readouterr().err
                == f"error: {cfg}: no output directory (set 'out' or pass --out)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study.kv"]

    def test_empty_out_flag_names_the_flag(self, tmp_path, capsys, monkeypatch):
        # the empty flag overrides the config's `out`, as gen, fit and spindex report it
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "res"))
        assert main(["study", "--config", cfg, "--jobs", "1", "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out: empty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study.kv"]

    def test_runtime_failure_in_the_study_exits_2(self, tmp_path, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise RuntimeError("replicate 0 failed: boom")
        monkeypatch.setattr("panelbayes.cli.run_study", fails)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"))
        assert main(["study", "--config", cfg]) == 2
        assert capsys.readouterr().err == "runtime failure: replicate 0 failed: boom\n"

    def test_config_error_line_anchored(self, tmp_path, capsys):
        bad = tmp_path / "bad.kv"
        bad.write_text("individuals = 4\nperiods four\n")
        assert main(["study", "--config", str(bad)]) == 1
        assert "bad.kv:2" in capsys.readouterr().err


class TestSpindex:
    def test_bundled_surrogate_layout(self, tmp_path):
        out = tmp_path / "sp.csv"
        assert main(["spindex", "--out", str(out)] + FIT_FLAGS) == 0
        rows = read_csv(out)
        assert rows[0] == ["run", "parameter", "mean", "sd", "lcl", "ucl"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("uninformative", "beta0"), ("uninformative", "beta1"), ("uninformative", "sigma"),
            ("informative", "beta0"), ("informative", "beta1"), ("informative", "sigma")]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        chain_cfg = tmp_path / "chain.kv"
        chain_cfg.write_text("samples = 400\nthreshold = 0.0\n")
        assert main(["spindex", "--config", str(chain_cfg)]) == 1
        assert f"{chain_cfg}: unknown key 'threshold'" in capsys.readouterr().err

    def test_trend_origin_is_not_settable(self, capsys):
        assert main(["spindex", "--baseline", "1950"] + FIT_FLAGS) == 1
        assert "--baseline" in capsys.readouterr().err

    def test_split_beyond_data_fails(self, capsys):
        assert main(["spindex", "--split-year", "3000"] + FIT_FLAGS) == 1
        assert "stage 2" in capsys.readouterr().err

    def test_threshold_flag_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spindex", "--out", str(a)] + FIT_FLAGS) == 0
        assert main(["spindex", "--out", str(b), "--threshold", "0.0"] + FIT_FLAGS) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_non_finite_threshold_is_config_error(self, tmp_path, capsys):
        assert main(["spindex", "--threshold", "nan", "--out", str(tmp_path / "sp.csv")]
                    + FIT_FLAGS) == 1
        assert ("usage error: argument --threshold: invalid finite value: 'nan'"
                in capsys.readouterr().err)
        assert not (tmp_path / "sp.csv").exists()

    def test_non_finite_return_is_config_error(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("year,return\n1990,0.5\n1991,nan\n1992,2.0\n1993,1.0\n")
        assert main(["spindex", "--data", str(series), "--split-year", "1992"] + FIT_FLAGS) == 1
        assert (capsys.readouterr().err
                == f"error: {series}:3: column 'return' is not a finite number: 'nan'\n")

    def test_year_beyond_int64_is_config_error_before_any_chain(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setattr("panelbayes.spindex.run_chain", no_chain)
        series = tmp_path / "series.csv"
        series.write_text("year,return\n1990,0.5\n99999999999999999999,2.0\n")
        assert main(["spindex", "--data", str(series), "--out", str(tmp_path / "sp.csv")]) == 1
        assert (capsys.readouterr().err == f"error: {series}:3: column 'year' is not "
                                           f"a 64-bit integer: '99999999999999999999'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]

    def test_degenerate_carry_over_names_the_parameter(self, capsys, monkeypatch):
        # a stage-1 chain that accepted no beta move: every kept beta0 draw is
        # the same and cannot become a normal prior
        def stuck_chain(data, priors, config):
            beta = np.linspace(0.0, 1.0, 3 * config.samples).reshape(-1, 3)
            beta[:, 0] = -1.0
            return PosteriorSamples(beta=beta, sigma2=np.linspace(0.5, 1.5, config.samples),
                                    accept_beta=0.0, accept_epsilon=np.zeros(data.n_individuals))
        monkeypatch.setattr("panelbayes.cli.usable_cpus", lambda: 1)
        monkeypatch.setattr("panelbayes.spindex.run_chain", stuck_chain)
        assert main(["spindex", "--burn-in", "20", "--samples", "20"]) == 2
        assert ("cannot carry beta0 forward: degenerate sample: all values identical"
                in capsys.readouterr().err)

    def test_out_path_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.two_stage_fit", no_chain)
        assert main(["spindex", "--out", ""] + FIT_FLAGS) == 1
        assert capsys.readouterr().err == "error: --out: empty path\n"
        missing = tmp_path / "missing"
        assert main(["spindex", "--out", str(missing / "sp.csv")] + FIT_FLAGS) == 1
        assert capsys.readouterr().err == f"error: --out: directory {str(missing)!r} does not exist\n"
        assert main(["spindex", "--out", str(tmp_path)] + FIT_FLAGS) == 1
        assert capsys.readouterr().err == f"error: --out: {str(tmp_path)!r} is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_an_input_rejected_before_any_chain(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("panelbayes.cli.two_stage_fit", no_chain)
        data, config = tmp_path / "returns.csv", tmp_path / "chain.kv"
        data.write_text("year,return\n2000,0.1\n")
        config.write_text("burn_in = 200\n")
        for flag, path in (("--data", data), ("--config", config)):
            assert main(["spindex", "--data", str(data), "--config", str(config),
                         "--out", str(path)] + FIT_FLAGS) == 1
            assert capsys.readouterr().err == (f"error: --out: {str(path)!r} is the same file "
                                               f"as {flag}\n")
        assert (data.read_text(), config.read_text()) == ("year,return\n2000,0.1\n",
                                                          "burn_in = 200\n")
        # without --data, spindex reads the bundled series, which --out must not replace
        bundled = tmp_path / "bundled.csv"
        bundled.write_bytes(Path(surrogate_path()).read_bytes())
        monkeypatch.setattr(cli, "surrogate_path", lambda: str(bundled))
        assert main(["spindex", "--out", str(bundled)] + FIT_FLAGS) == 1
        assert capsys.readouterr().err == (f"error: --out: {str(bundled)!r} is the same file "
                                           f"as --data\n")
        assert bundled.read_bytes() == Path(surrogate_path()).read_bytes()

    def test_stdout_mode(self, tmp_path, capsys):
        assert main(["spindex"] + FIT_FLAGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("run,parameter,mean,sd,lcl,ucl")
        path = tmp_path / "sp.csv"
        assert main(["spindex", "--out", str(path)] + FIT_FLAGS) == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spindex", "--out", str(a)] + FIT_FLAGS) == 0
        assert main(["spindex", "--out", str(b)] + FIT_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_follow_cpu_affinity(self, monkeypatch):
        def stop(*args):
            raise ConfigError("stopped")
        monkeypatch.setattr("panelbayes.cli.two_stage_fit", stop)
        pools = record_worker_pools(monkeypatch)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            assert main(["spindex"] + FIT_FLAGS) == 1
        assert pools == [0, 1]

    def test_cpu_count_never_changes_the_output(self):
        # real stdout and stderr: the warnings reach stderr through logging
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
                "from panelbayes.cli import main\n"
                "sys.exit(main(sys.argv[2:]))\n")
        runs = [subprocess.run([sys.executable, "-c", code, str(cpus), "spindex"] + FIT_FLAGS,
                               capture_output=True, env=src_env(), timeout=120, check=True)
                for cpus in (1, 2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.startswith(b"run,parameter,mean,sd,lcl,ucl\n")
        assert runs[0].stderr == runs[1].stderr
        assert b"uninformative fit: ESS of" in runs[0].stderr

    @needs_a_worker
    def test_sigterm_stops_the_worker(self):
        assert_sigterm_stops_the_worker(["spindex", "--burn-in", "2000", "--samples", "1000000"])

    def test_lazy_numpy_modules_load_before_the_sigterm_handler(self):
        # a SystemExit raised while numpy.random initialises is lost
        code = ("import signal, sys\n"
                "from panelbayes import cli, workers\n"
                "install = signal.signal\n"
                "def record(signum, handler):\n"
                "    if handler is workers._exit_on_signal:\n"
                "        print([m in sys.modules for m in ('numpy.random', 'numpy.fft')])\n"
                "    return install(signum, handler)\n"
                "signal.signal = record\n"
                "cli.main(['spindex', '--burn-in', '50', '--samples', '50', '--seed', '3'])\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), check=True)
        assert done.stdout.split("\n")[0] == "[True, True]"


# the command line of each reader of an input file, with {path} for that file
INPUT_READERS = {
    "fit --data": ["fit", "--data", "{path}"],
    "fit --config": ["fit", "--data", "{panel}", "--config", "{path}"],
    "fit --priors-in": ["fit", "--data", "{panel}", "--priors-in", "{path}"],
    "gen --config": ["gen", "--config", "{path}", "--out", "{tmp}/p.csv"],
    "study --config": ["study", "--config", "{path}", "--out", "{tmp}/out"],
    "spindex --data": ["spindex", "--data", "{path}"],
    "spindex --config": ["spindex", "--config", "{path}"],
}


class TestInputFiles:
    @pytest.mark.parametrize("reader", INPUT_READERS)
    def test_unopenable_input_is_config_error(self, tmp_path, panel_csv, capsys, monkeypatch,
                                              reader):
        # a missing file and a directory alike exit 1, naming the path and the reason
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        monkeypatch.setattr("panelbayes.spindex.run_chain", no_chain)
        (tmp_path / "a_dir").mkdir()
        for name, errnum in (("a_dir", errno.EISDIR), ("missing.kv", errno.ENOENT)):
            path = tmp_path / name
            argv = [a.format(path=path, panel=panel_csv, tmp=tmp_path)
                    for a in INPUT_READERS[reader]]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {path}: cannot open ({os.strerror(errnum)})\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "gen.kv", "panel.csv",
                                                              "panel.csv.truth"]

    @pytest.mark.parametrize("reader", INPUT_READERS)
    def test_non_utf8_input_is_config_error(self, tmp_path, panel_csv, capsys, monkeypatch,
                                            reader):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        monkeypatch.setattr("panelbayes.spindex.run_chain", no_chain)
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"seed = 1\nyear,return\n1990,\xff\n")
        argv = [a.format(path=path, panel=panel_csv, tmp=tmp_path) for a in INPUT_READERS[reader]]
        assert main(argv) == 1
        assert (capsys.readouterr().err
                == f"error: {path}: not UTF-8 text (byte 26: invalid start byte)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.kv", "latin1.txt", "panel.csv",
                                                              "panel.csv.truth"]

    def test_empty_or_duplicated_config_key_is_config_error(self, tmp_path, panel_csv, capsys,
                                                             monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        cfg = tmp_path / "chain.kv"
        for text, message in [(" = 200\n", "1: empty key"),
                              ("burn_in = 200\nsamples = 400\nburn_in = 300\n",
                               "3: duplicate key 'burn_in'")]:
            cfg.write_text(text)
            assert main(["fit", "--data", str(panel_csv), "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}:{message}\n"

    def test_duplicated_panel_row_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("panelbayes.cli.run_chain", no_chain)
        panel = tmp_path / "panel.csv"
        panel.write_text("individual,time,y,x1,x2\n1,1,1,0.5,0.2\n2,1,0,0.1,0.2\n"
                         "1,1,0,0.3,0.2\n")
        assert main(["fit", "--data", str(panel), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == (f"error: {panel}: time indices must be strictly "
                                           f"increasing within an individual\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]

    def test_blank_panel_line_is_skipped(self, tmp_path, panel_csv):
        lines = panel_csv.read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines[:5] + ["\n"] + lines[5:] + ["\n"]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fit", "--data", str(panel_csv), "--out", str(a)] + FIT_FLAGS) == 0
        assert main(["fit", "--data", str(blank), "--out", str(b)] + FIT_FLAGS) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutputBytes:
    # sha256 of every file the commands write: a change to the kernel or to
    # the writers that keeps every draw and every number keeps these bytes
    DIGESTS = {
        "panel.csv": "03c1327cdc9e6a843ace077f31aea32c70b2fb48ce45307549d487b1dd752731",
        "panel.csv.truth": "e804afb66417a1268a01da2847a1a6de50fad7250dff16e9bf581e78cf261f6e",
        "summary.csv": "eec2874185390e752021a613b56854989b5080a0543ba5d1aa82bcd82f5d2a01",
        "priors.kv": "c3f30d0d45ee6ff7a1ab58cb1ad93c66faba0a809232be88b785ae0a8af7676a",
        "draws.csv": "d2bb4a915208647cd7a3616b9e5ef51bc15dea9080040119bfb8bfd0f67116ee",
        "spindex.csv": "70ac65515388db922e0de89749453ed794d57ee6a809d5d6b605f93dcdfb6665",
    }

    CHAIN = ["--burn-in", "537", "--samples", "300", "--seed", "7"]

    def test_outputs_are_pinned(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.kv", individuals=10, periods=6)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "panel.csv")]) == 0
        assert main(["fit", "--data", str(tmp_path / "panel.csv"),
                     "--out", str(tmp_path / "summary.csv"),
                     "--priors-out", str(tmp_path / "priors.kv"),
                     "--draws-out", str(tmp_path / "draws.csv")] + self.CHAIN) == 0
        assert main(["spindex", "--out", str(tmp_path / "spindex.csv")] + self.CHAIN) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS

    def test_pinned_spindex_run_takes_both_softplus_forms(self, tmp_path, monkeypatch,
                                                           safe_windows):
        # every chain in this process, so each of the 3 chains' 17 windows
        # is counted: some could propose a mu past _EXP_SAFE and take the
        # overflow-safe form, so the pinned bytes cover both forms
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        out = tmp_path / "spindex.csv"
        assert main(["spindex", "--out", str(out)] + self.CHAIN) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS["spindex.csv"]
        assert len(safe_windows) == 51 and 0 < sum(safe_windows) < 51

    STUDY_DIGESTS = {
        "table_beta0.csv": "b92542a8ac83f791cef76b078fcb43a25c2588fe63969a32ab514efb21b350cd",
        "table_beta1.csv": "090813b9ce74ed642e114bbfeb311c7a2a76227b0bfe38e4d12b2e2ad4b35ded",
        "table_beta2.csv": "52ae5dba155b0fce2a5c6c67b90848853e841d707b6dbb9e816ab16821b7be07",
        "table_sigma.csv": "c2720a9bc0c72ee5f2b30f15cbb273d135689c9c7cfda7109a90be70ec43eb60",
        "estimates.csv": "fc808ab7af13299a6cbb7772bd6abe35a08f450d4eeafeea7eca00b44447146c",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_study_outputs_are_pinned(self, tmp_path, jobs):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), individuals=20,
                                 replicates=3, burn_in=600, samples=400)
        assert main(["study", "--config", cfg, "--jobs", jobs]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in self.STUDY_DIGESTS}
        assert digests == self.STUDY_DIGESTS


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_gen_fit_spindex_never_load_scipy(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.kv")
        panel, out = str(tmp_path / "panel.csv"), str(tmp_path)
        tiny = ["--burn-in", "50", "--samples", "50", "--seed", "3"]
        code = ("import sys\n"
                "from panelbayes.cli import main\n"
                f"codes = [main(['gen', '--config', {cfg!r}, '--out', {panel!r}])]\n"
                # gen starts no worker pool, so it needs no multiprocessing
                "pool_loaded = 'multiprocessing' in sys.modules\n"
                f"codes.append(main(['fit', '--data', {panel!r}, '--out', {out!r} + '/fit.csv',\n"
                f"                   '--priors-out', {out!r} + '/p.kv'] + {tiny!r}))\n"
                f"codes.append(main(['spindex', '--out', {out!r} + '/sp.csv'] + {tiny!r}))\n"
                "print(codes, pool_loaded, 'scipy' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), check=True)
        assert done.stdout.split("\n")[-2] == "[0, 0, 0] False False"

    def test_study_runs_without_scipy(self, tmp_path):
        from scipy import stats as sps
        outdir = tmp_path / "out"
        cfg = write_study_config(tmp_path / "study.kv", str(outdir), runs="R4", replicates=3,
                                 jobs=1)
        # a None entry makes any import of scipy raise ImportError
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from panelbayes.cli import main\n"
                f"print(main(['study', '--config', {cfg!r}]))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), check=True)
        assert done.stdout.split("\n")[-2] == "0"
        est = {}
        for rep, run, param, value in read_csv(outdir / "estimates.csv")[1:]:
            est.setdefault(param, []).append(float(value))
        for param, vals in est.items():
            [row] = read_csv(outdir / f"table_{param}.csv")[1:]
            half = sps.t.ppf(0.975, len(vals) - 1) * np.std(vals, ddof=1) / np.sqrt(len(vals))
            assert float(row[4]) == pytest.approx(np.mean(vals) - half, rel=1e-12)
            assert float(row[5]) == pytest.approx(np.mean(vals) + half, rel=1e-12)

    def test_missing_required_flag(self, capsys):
        assert main(["gen"]) == 1
        assert "usage error" in capsys.readouterr().err
