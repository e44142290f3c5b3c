import csv
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
from panelbayes.cli import main
from panelbayes.datagen import SimConfig
from panelbayes.errors import ConfigError
from panelbayes.experiment import PARAMETERS, run_study
from panelbayes.model import PANEL_CSV_HEADER, PanelDataset, concat_panels
from panelbayes.sampler import ChainConfig, PosteriorSamples, SummaryStats

FIT_FLAGS = ["--burn-in", "200", "--samples", "400", "--seed", "7"]


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
        assert "individuals" in capsys.readouterr().err

    def test_non_finite_value_is_config_error(self, tmp_path, capsys):
        for key, value in [("sigma", "inf"), ("beta0", "nan")]:
            cfg = write_gen_config(tmp_path / "bad.kv", **{key: value})
            assert main(["gen", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 1
            assert f"{cfg}: key {key!r} is not a finite number" in capsys.readouterr().err
            assert not (tmp_path / "p.csv").exists()

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
        run_study(sim, ("R4",), ChainConfig(burn_in=10, samples=10), jobs=1)
        written = PanelDataset.from_csv(str(out))
        assert len(fitted) == 2  # one R4 fit per replicate, replicate 0 first
        for col in PANEL_CSV_HEADER:
            assert np.array_equal(getattr(fitted[1], col), getattr(written, col))
        assert not np.array_equal(fitted[0].x2, written.x2)


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


def write_study_config(path, outdir, **overrides):
    values = {"individuals": 4, "periods": 4, "sigma": 1.0, "replicates": 2,
              "seed": 31, "burn_in": 150, "samples": 250, "runs": "R1,R2,R3,R4,R5,R6",
              "jobs": 2, "out": outdir}
    values.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


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
        jobs_seen = []

        def record(sim, run_ids, chain, jobs=1):
            jobs_seen.append(jobs)
            raise ConfigError("recorded")
        monkeypatch.setattr("panelbayes.cli.run_study", record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), jobs=2)
        assert main(["study", "--config", cfg]) == 1
        assert jobs_seen == [1]

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
        assert "R7" in capsys.readouterr().err

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
        assert "replicates" in capsys.readouterr().err
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
        assert f"{out}' exists and is not a directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

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
        assert f"{series}:3: column 'return' is not a finite number" in capsys.readouterr().err

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
        jobs_seen = []

        def record(*args, jobs=1, **kwargs):
            jobs_seen.append(jobs)
            raise ConfigError("recorded")
        monkeypatch.setattr("panelbayes.cli.two_stage_fit", record)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            assert main(["spindex"] + FIT_FLAGS) == 1
        assert jobs_seen == [1, 2]

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

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="a worker beside the parent needs 2 usable CPUs")
    def test_sigterm_stops_the_worker(self):
        proc = subprocess.Popen([sys.executable, "-m", "panelbayes.cli", "spindex",
                                 "--burn-in", "2000", "--samples", "1000000"],
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

    def test_lazy_numpy_modules_load_before_the_sigterm_handler(self):
        # a SystemExit raised while numpy.random initialises is lost
        code = ("import signal, sys\n"
                "from panelbayes import cli\n"
                "install = signal.signal\n"
                "def record(signum, handler):\n"
                "    if handler is cli._exit_on_signal:\n"
                "        print([m in sys.modules for m in ('numpy.random', 'numpy.fft')])\n"
                "    return install(signum, handler)\n"
                "signal.signal = record\n"
                "cli.main(['spindex', '--burn-in', '50', '--samples', '50', '--seed', '3'])\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), check=True)
        assert done.stdout.split("\n")[0] == "[True, True]"


class TestOutputBytes:
    # sha256 of every file the commands write: a change to the kernel or to
    # the writers that keeps every draw and every number keeps these bytes
    DIGESTS = {
        "panel.csv": "03c1327cdc9e6a843ace077f31aea32c70b2fb48ce45307549d487b1dd752731",
        "panel.csv.truth": "e804afb66417a1268a01da2847a1a6de50fad7250dff16e9bf581e78cf261f6e",
        "summary.csv": "dc9459b517ccc7a558f0d7097eb16e2c2e3667ceaca17bdc8e734a6439fbcee4",
        "priors.kv": "9d9c4a0de2f90e7a8d4c72fc21692eac77bf80a68741973c48e70eefe5a3a7ea",
        "draws.csv": "1fa1955ec2a940a977889b05c9c2f91ed45d9dc7a166d706ad130eb15662866d",
        "spindex.csv": "2a1d73aace19204fc2b9cfb3760279827a360b39011b92551be6af04e785de92",
    }

    def test_outputs_are_pinned(self, tmp_path):
        chain = ["--burn-in", "537", "--samples", "300", "--seed", "7"]
        cfg = write_gen_config(tmp_path / "gen.kv", individuals=10, periods=6)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "panel.csv")]) == 0
        assert main(["fit", "--data", str(tmp_path / "panel.csv"),
                     "--out", str(tmp_path / "summary.csv"),
                     "--priors-out", str(tmp_path / "priors.kv"),
                     "--draws-out", str(tmp_path / "draws.csv")] + chain) == 0
        assert main(["spindex", "--out", str(tmp_path / "spindex.csv")] + chain) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_gen_fit_spindex_never_load_scipy(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.kv")
        panel, out = str(tmp_path / "panel.csv"), str(tmp_path)
        tiny = ["--burn-in", "50", "--samples", "50", "--seed", "3"]
        code = ("import sys\n"
                "from panelbayes.cli import main\n"
                f"codes = [main(['gen', '--config', {cfg!r}, '--out', {panel!r}]),\n"
                f"         main(['fit', '--data', {panel!r}, '--out', {out!r} + '/fit.csv',\n"
                f"               '--priors-out', {out!r} + '/p.kv'] + {tiny!r})]\n"
                # gen and fit start no worker pool, so they need no multiprocessing
                "pool_loaded = 'multiprocessing' in sys.modules\n"
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
