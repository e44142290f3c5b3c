"""The benchmark's tracer finds every layer function it wraps.

`perfbench/spans.py` names the functions it wraps by module and attribute,
and `perfbench/run.py` calls the per-iteration functions with fixed
signatures, so a rename or a changed signature in the package would
otherwise surface only in a traced benchmark run.
"""

import numpy as np

from panelbayes import model, sampler
from panelbayes.cli import main
from perfbench.spans import Tracer


def test_spindex_records_its_spans_and_probes_run(tmp_path, monkeypatch):
    # with two CPUs the diffuse-prior stage-2 chain runs in a worker process,
    # which is sent the tracer's wrapper of run_chain by name and records its
    # spans there, out of this tracer's sight
    for cpus, chains_here in (({0}, 3), ({0, 1}, 2)):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        tracer = Tracer()
        tracer.install()
        try:
            code = main(["spindex", "--out", str(tmp_path / "sp.csv"),
                         "--burn-in", "50", "--samples", "50", "--seed", "3"])
        finally:
            tracer.uninstall()
        assert code == 0
        names = {span["name"] for span in tracer.spans}
        assert {"spindex.load_returns", "spindex.series_to_panel", "spindex.two_stage_fit",
                "spindex.write_comparison_csv", "sampler.run_chain"} <= names
        assert len(tracer.chains) == chains_here

    chain = tracer.chains[0]
    data, priors = chain["data"], chain["priors"]
    rng = np.random.default_rng(3)
    state = sampler.initial_state(data, priors)
    assert np.isfinite(model.log_likelihood(data, state))
    after = sampler.metropolis_sweep(data, state, priors, rng)
    assert after.epsilon.shape == state.epsilon.shape
    assert sampler.gibbs_sigma2(state.epsilon, priors.sigma2_prior, rng) > 0.0


def test_fit_records_its_spans(tmp_path, monkeypatch):
    # with two CPUs only the second sampling segment runs in a worker, so the
    # chain is recorded here at both CPU counts
    cfg = tmp_path / "gen.kv"
    cfg.write_text("individuals = 10\nperiods = 6\nsigma = 1.0\nseed = 3\n")
    panel = tmp_path / "panel.csv"
    assert main(["gen", "--config", str(cfg), "--out", str(panel)]) == 0
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        tracer = Tracer()
        tracer.install()
        try:
            code = main(["fit", "--data", str(panel), "--out", str(tmp_path / "summary.csv"),
                         "--priors-out", str(tmp_path / "priors.kv"),
                         "--draws-out", str(tmp_path / "draws.csv"),
                         "--burn-in", "50", "--samples", "50", "--seed", "3"])
        finally:
            tracer.uninstall()
        assert code == 0
        names = {span["name"] for span in tracer.spans}
        assert {"model.from_csv", "sampler.run_chain", "sampler.summarize",
                "priors.posterior_to_priorset", "priors.save_priors",
                "sampler.draws_to_csv"} <= names
        assert len(tracer.chains) == 1
        assert {"data", "priors"} <= tracer.chains[0].keys()


def test_study_records_its_spans(tmp_path):
    cfg = tmp_path / "study.kv"
    cfg.write_text("individuals = 4\nperiods = 4\nsigma = 1.0\nreplicates = 2\nseed = 3\n"
                   "burn_in = 50\nsamples = 50\nruns = R1,R4\n")
    tracer = Tracer()
    tracer.install()
    try:
        code = main(["study", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--jobs", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span["name"] for span in tracer.spans}
    assert {"experiment.run_study", "experiment.execute_run.R1", "experiment.execute_run.R4",
            "datagen.gen_panel", "datagen.partition", "priors.posterior_to_priorset",
            "experiment.write_tables"} <= names
