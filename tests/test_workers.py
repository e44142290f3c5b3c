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
from panelbayes.workers import worker_pool

PARENT = os.getpid()
real_log_posterior = sampler.log_posterior


def finish_in_reverse(k):
    """Later tasks finish first, so results in task order are not completion order."""
    time.sleep(0.05 * (5 - k))
    return k * k


def first_fails_others_hang(k):
    if k == 0:
        raise ValueError("task 0 failed")
    time.sleep(60.0)


def fails_in_a_worker(data, state, priors):
    if os.getpid() != PARENT:
        raise FloatingPointError("the worker's chain failed")
    return real_log_posterior(data, state, priors)


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
                        reason="the patched log_posterior must reach the worker")
    def test_worker_chain_failure_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr("panelbayes.sampler.log_posterior", fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["spindex"] + self.FLAGS) == 2
        assert "runtime failure: the worker's chain failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
