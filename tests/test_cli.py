import csv
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import panelbayes
from panelbayes.cli import main

FIT_FLAGS = ["--burn-in", "200", "--samples", "400", "--seed", "7"]


def write_gen_config(path, **overrides):
    values = {"individuals": 4, "periods": 4, "sigma": 1.0, "seed": 99}
    values.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


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

    def test_numeric_failure_exit_code(self, tmp_path, panel_csv):
        # an infinite prior mean makes the starting log posterior non-finite
        inf_priors = tmp_path / "inf.kv"
        inf_priors.write_text("\n".join(
            ["beta0.mean = inf", "beta0.variance = 1.0",
             "beta1.mean = 0.0", "beta1.variance = 1.0",
             "beta2.mean = 0.0", "beta2.variance = 1.0",
             "sigma2.shape = 2.0", "sigma2.scale = 1.0"]) + "\n")
        assert main(["fit", "--data", str(panel_csv),
                     "--priors-in", str(inf_priors)] + FIT_FLAGS) == 2


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

    def test_bad_run_id(self, tmp_path, capsys):
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), runs="R7")
        assert main(["study", "--config", cfg]) == 1
        assert "R7" in capsys.readouterr().err

    def test_single_replicate_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), replicates=1)
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
        assert "replicates" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected_before_any_chain(self, tmp_path, capsys, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr("panelbayes.experiment.run_chain", no_chain)
        for key in ("burnin", "adapt_window", "replicate"):
            cfg = write_study_config(tmp_path / "study.kv", str(tmp_path / "out"), **{key: 100})
            assert main(["study", "--config", cfg, "--jobs", "1"]) == 1
            assert f"{cfg}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats takes longer to import than the rest of the CLI together
        src = str(Path(panelbayes.__file__).resolve().parents[1])
        code = "import sys, panelbayes.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "False"

    def test_missing_required_flag(self, capsys):
        assert main(["gen"]) == 1
        assert "usage error" in capsys.readouterr().err
