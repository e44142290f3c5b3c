"""Worker processes for the commands that run independent chains, or
independent segments of one chain, at once.

The CLI opens one `worker_pool` per command, which also makes SIGTERM exit
143, and passes it to the library functions, whose `pool` defaults to
`InParent()`, in this process. `study` maps its replicates through it (see
`experiment.run_study`). `fit` runs only the second sampling segment of
its chain in one worker (see `sampler.run_chain`), and writes every output
in the parent. A segment's task carries the burned-in chain itself, which
the worker receives pickled and runs on the segment's own seed.
`spindex` has one worker fit its diffuse-prior stage-2 chain and then run
the second sampling segment of its carried-over chain, while the parent
fits stage 1 and the rest of the carried-over chain (see
`spindex.two_stage_fit`). Every chain and every segment has its own seed
(see `seeding`), so the worker count never changes a result. `usable_cpus`
is the count the three commands start from.
"""

from __future__ import annotations

import functools
import os
import signal
from contextlib import contextmanager
from types import SimpleNamespace


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), not all of the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leave_stopping_to_parent() -> None:
    """Worker set-up: ignore SIGINT and die at once on SIGTERM, so a stopped
    command is stopped by its parent, which then ends the workers. A worker
    starts with SIGTERM blocked, as its parent held it while starting the
    pool (see `worker_pool`), so it unblocks it here, once SIGTERM kills it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


class InParent:
    """The stateless pool of `worker_pool(0)` and the library's default: `map`
    runs its tasks in turn, a submitted task when its result is asked for."""

    map = staticmethod(map)

    @staticmethod
    def submit(fn, *args):
        return SimpleNamespace(result=functools.partial(fn, *args))


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def worker_pool(workers: int):
    """A pool of `workers` processes, or with 0 a stand-in that runs every
    task in this process; `map` gives results in task order.

    Tasks must be module-level callables with picklable arguments. Enter it
    from the main thread: for the whole block, with or without workers,
    SIGTERM raises SystemExit(143), and the previous handler is restored when
    the block ends. Any exception that leaves the block -- a task's failure,
    a failure of the parent's own work, KeyboardInterrupt, or that
    SystemExit -- ends the workers at once instead of waiting for their tasks.
    """
    # A SystemExit raised while numpy.random initialises is lost, and the
    # command runs on, so the numpy modules a chain and its summary import
    # on first use are loaded before the handler goes in.
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401

    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        if workers < 1:
            yield InParent()
            return
        # here, so commands that start no pool never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_leave_stopping_to_parent) as pool:
            try:
                # The first submit starts the pool's manager thread and, with
                # the fork start method, every worker. A SystemExit raised in
                # the middle of that leaves a thread that can never be joined,
                # and the command fails with "cannot join thread before it is
                # started", so SIGTERM waits until the pool is up.
                held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
                try:
                    pool.submit(int)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                yield pool
            except BaseException:
                # leaving the pool's block waits for the running tasks
                # (Python 3.14 has this as pool.terminate_workers())
                for proc in list(pool._processes.values()):
                    proc.terminate()
                raise
    finally:
        signal.signal(signal.SIGTERM, previous)
