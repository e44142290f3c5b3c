import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import panelbayes
from panelbayes import sampler
from panelbayes.cli import main
from panelbayes.priors import default_uninformative
from panelbayes.workers import usable_cpus, worker_pool

PARENT = os.getpid()
DIFFUSE_SCALE = default_uninformative().sigma2_prior.scale
real_initial_state = sampler.initial_state
real_sweep = sampler._Chain.sweep
real_sample = sampler._sample


def finish_in_reverse(k):
    """Later tasks finish first, so results in task order are not completion order."""
    time.sleep(0.05 * (5 - k))
    return k * k


def first_fails_others_hang(k):
    if k == 0:
        raise ValueError("task 0 failed")
    time.sleep(60.0)


def sweep_fails_in_a_worker(chain, rng, n=1):
    if os.getpid() != PARENT:
        raise FloatingPointError("the worker's segment failed")
    return real_sweep(chain, rng, n)


def fails_in_a_worker(data, priors):
    if os.getpid() != PARENT:
        raise FloatingPointError("the worker's chain failed")
    return real_initial_state(data, priors)


def informative_segment_fails_in_a_worker(chain, *args):
    """Fails a sampling segment run in a worker on a chain whose own sigma2
    prior is not the diffuse one: the carried-over fit's. Each failure first
    adds that prior's scale as a line to the file $FAILED_SEGMENTS."""
    if os.getpid() != PARENT and chain.sigma2_scale != DIFFUSE_SCALE:
        with open(os.environ["FAILED_SEGMENTS"], "a") as failed:
            failed.write(f"{chain.sigma2_scale!r}\n")
        raise FloatingPointError("the informative fit's worker segment failed")
    return real_sample(chain, *args)


def failed_segment_scales(path):
    """The sigma2 prior scales of the chains whose worker segments failed."""
    return [float(line) for line in path.read_text().splitlines()] if path.exists() else []


@pytest.mark.parametrize("cpu_count, expected", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity_falls_back_to_cpu_count(monkeypatch, cpu_count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert usable_cpus() == expected


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_results_come_back_in_task_order(workers):
    with worker_pool(workers) as pool:
        assert list(pool.map(finish_in_reverse, range(5))) == [0, 1, 4, 9, 16]
        assert pool.submit(finish_in_reverse, 4).result() == 16
    assert multiprocessing.active_children() == []


def test_in_parent_pool_runs_a_submitted_task_when_asked():
    ran = []
    with worker_pool(0) as pool:
        later = pool.submit(ran.append, "task")
        assert ran == []
        later.result()
    assert ran == ["task"]


def test_failed_task_ends_the_other_workers():
    start = time.monotonic()
    with pytest.raises(ValueError, match="task 0 failed"):
        with worker_pool(2) as pool:
            list(pool.map(first_fails_others_hang, range(4)))
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_failure_in_the_parent_ends_the_workers():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="the parent failed"):
        with worker_pool(1) as pool:
            pool.submit(time.sleep, 60.0)
            raise RuntimeError("the parent failed")
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def blocked_signals():
    return signal.pthread_sigmask(signal.SIG_BLOCK, set())


def test_workers_run_with_sigterm_unblocked():
    # the pool starts its workers with SIGTERM blocked; each must unblock it,
    # or terminate() could not stop a worker in the middle of a task
    with worker_pool(1) as pool:
        assert signal.SIGTERM not in pool.submit(blocked_signals).result()
    assert signal.SIGTERM not in blocked_signals()


@pytest.mark.parametrize("workers", [0, 1])
def test_sigterm_exits_143_for_the_block_only(workers):
    before = signal.getsignal(signal.SIGTERM)
    with worker_pool(workers):
        handler = signal.getsignal(signal.SIGTERM)
    assert signal.getsignal(signal.SIGTERM) is before
    with pytest.raises(SystemExit) as stopped:
        handler(signal.SIGTERM, None)
    assert stopped.value.code == 128 + signal.SIGTERM


def test_sigterm_while_the_pool_starts_exits_143():
    # SIGTERM arrives as the pool's manager thread is about to start. It must
    # wait until the pool is up, then end the worker and exit 143; raised
    # inside the start-up, it left a thread that could not be joined (exit 2)
    code = ("import os, signal, sys\n"
            "from concurrent.futures import process\n"
            "from panelbayes.cli import main\n"
            "start = process._ExecutorManagerThread.start\n"
            "def stop_then_start(self):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    start(self)\n"
            "process._ExecutorManagerThread.start = stop_then_start\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(main(['spindex', '--burn-in', '50', '--samples', '1000000']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(panelbayes.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (128 + signal.SIGTERM, "")


class TestSpindexFailures:
    FLAGS = ["--burn-in", "50", "--samples", "200", "--seed", "3"]

    def test_parent_chain_failure_exits_2(self, monkeypatch, capsys):
        def no_carry_over(samples):
            raise ValueError("cannot carry over")
        monkeypatch.setattr("panelbayes.spindex.posterior_to_priorset", no_carry_over)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["spindex"] + self.FLAGS) == 2
        assert "runtime failure: cannot carry over" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched initial_state must reach the worker")
    def test_worker_chain_failure_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr("panelbayes.sampler.initial_state", fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["spindex"] + self.FLAGS) == 2
        assert "runtime failure: the worker's chain failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched _sample must reach the worker")
    def test_worker_segment_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # the worker runs the informative fit's second sampling segment, the
        # one segment that fails: the diffuse fit's segments, which the
        # worker runs first, succeed
        failed = tmp_path / "failed"
        monkeypatch.setenv("FAILED_SEGMENTS", str(failed))
        monkeypatch.setattr("panelbayes.sampler._sample", informative_segment_fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["spindex"] + self.FLAGS) == 2
        err = capsys.readouterr().err
        assert "runtime failure: the informative fit's worker segment failed" in err
        assert len(failed_segment_scales(failed)) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched functions must reach the worker")
    def test_worker_chain_failure_wins_over_a_later_segment_failure(self, tmp_path, monkeypatch,
                                                                    capsys):
        # both of the worker's tasks fail; the uninformative fit comes first in fit order
        failed = tmp_path / "failed"
        monkeypatch.setenv("FAILED_SEGMENTS", str(failed))
        monkeypatch.setattr("panelbayes.sampler.initial_state", fails_in_a_worker)
        monkeypatch.setattr("panelbayes.sampler._sample", informative_segment_fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["spindex"] + self.FLAGS) == 2
        err = capsys.readouterr().err
        assert "runtime failure: the worker's chain failed" in err
        assert "segment failed" not in err
        assert len(failed_segment_scales(failed)) == 1  # the later failure did happen
        assert multiprocessing.active_children() == []


class TestFitFailures:
    # with 2 usable CPUs, `fit` runs its second sampling segment in a worker
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched sweep must reach the worker")
    def test_worker_segment_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        panel = tmp_path / "panel.csv"
        (tmp_path / "gen.kv").write_text("individuals = 4\nperiods = 4\nsigma = 1.0\nseed = 99\n")
        assert main(["gen", "--config", str(tmp_path / "gen.kv"), "--out", str(panel)]) == 0
        monkeypatch.setattr(sampler._Chain, "sweep", sweep_fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["fit", "--data", str(panel), "--burn-in", "50", "--samples", "200"]) == 2
        assert "runtime failure: the worker's segment failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_draws_failure_in_the_parent_exits_2(self, tmp_path, monkeypatch, capsys):
        # the parent writes the draws CSV while the pool is still open
        def cannot_write(*args):
            raise OSError("cannot write the draws")
        panel = tmp_path / "panel.csv"
        (tmp_path / "gen.kv").write_text("individuals = 4\nperiods = 4\nsigma = 1.0\nseed = 99\n")
        assert main(["gen", "--config", str(tmp_path / "gen.kv"), "--out", str(panel)]) == 0
        monkeypatch.setattr(sampler, "write_csv", cannot_write)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["fit", "--data", str(panel), "--out", str(tmp_path / "summary.csv"),
                     "--draws-out", str(tmp_path / "draws.csv"),
                     "--burn-in", "50", "--samples", "200"]) == 2
        assert "runtime failure: cannot write the draws" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "draws.csv").exists()
