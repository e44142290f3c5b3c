"""The output checks reject what a broken command could write."""

import pytest

from panelbayes import cli
from perfbench.run import Runner
from perfbench.workloads import SAMPLES, Fit, Spindex


@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    """One real `fit` of the small workload, run once for all tests here."""
    wl = Fit(3, tmp_path_factory.mktemp("inputs") / "in", 100, "late", (600, 100, 10))
    wl.setup()
    out = tmp_path_factory.mktemp("out")
    assert cli.main(wl.argv(out, jobs=1)) == 0
    return wl, out


def test_good_fit_output_passes_and_returns_draws(fit_output):
    wl, out = fit_output
    problems = []
    draws = wl.check(out, "", problems)
    assert problems == []
    assert draws["beta"].shape == (SAMPLES, 3) and draws["sigma2"].shape == (SAMPLES,)


@pytest.mark.parametrize("name, old, new", [
    ("draws.csv", "iteration,parameter,value", "iteration,param,value"),
    ("draws.csv", ",sigma2,", ",sigma2,nan\n1,sigma2,"),
    ("summary.csv", "beta1,", "beta1,inf,"),
    ("priors.kv", "sigma2.shape = ", "sigma2.shape = -"),
])
def test_corrupted_fit_output_is_a_problem(fit_output, tmp_path, name, old, new):
    wl, out = fit_output
    for f in out.iterdir():
        text = f.read_text()
        if f.name == name:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / f.name).write_text(text)
    problems = []
    wl.check(tmp_path, "", problems)
    assert problems


def test_missing_output_is_a_problem(tmp_path):
    wl = Spindex(1, tmp_path / "in")
    problems = []
    wl.check(tmp_path, "", problems)
    assert problems and "comparison.csv" in problems[0]


class GenWorkload:
    """Runs `panelbayes gen`, whose output changes with the seed it is given."""

    def __init__(self, config, seeds):
        self.config, self.seeds = config, iter(seeds)

    def argv(self, out, jobs):
        return ["gen", "--config", str(self.config), "--out", str(out / "panel.csv"),
                "--seed", str(next(self.seeds))]

    def check(self, out, stdout, problems):
        return {}


@pytest.mark.parametrize("seeds, failed", [([5, 5, 5], 0), ([5, 6, 5], 1)])
def test_runner_fails_a_repeat_that_writes_other_bytes(tmp_path, seeds, failed):
    config = tmp_path / "gen.kv"
    config.write_text("individuals = 4\nperiods = 2\nsigma = 1.0\n")
    runner = Runner(GenWorkload(config, seeds), tmp_path)
    for _ in seeds:
        runner.run(jobs=1)
    assert (runner.attempted, runner.failed) == (3, failed)


def test_runner_fails_a_nonzero_exit(tmp_path):
    runner = Runner(GenWorkload(tmp_path / "missing.kv", [1]), tmp_path)
    runner.run(jobs=1)
    assert runner.failed == 1 and "exit code 1" in runner.problems[0]
