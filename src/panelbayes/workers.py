"""Worker processes for the commands that run independent chains at once.

`study` fits its replicates in a pool of workers, and `spindex` fits its
diffuse-prior stage-2 chain in one worker while the parent fits the other
two. Every chain has its own seed (see `seeding`), so the worker count never
changes a result. `usable_cpus` is the count both commands start from.
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


class _InParent:
    """The pool of `worker_pool(0)`: `map` runs its tasks in turn, and a
    submitted task runs when its result is asked for."""

    map = staticmethod(map)

    @staticmethod
    def submit(fn, *args):
        return SimpleNamespace(result=functools.partial(fn, *args))


@contextmanager
def worker_pool(workers: int):
    """A pool of `workers` processes, or with 0 a stand-in that runs every
    task in this process; `map` gives results in task order.

    Tasks must be module-level callables with picklable arguments. Any
    exception that leaves the block -- a task's failure, a failure of the
    parent's own work, KeyboardInterrupt, or the SystemExit the CLI makes of
    SIGTERM -- ends the workers at once instead of waiting for their tasks.
    """
    if workers < 1:
        yield _InParent()
        return
    # here, so commands that start no pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_leave_stopping_to_parent) as pool:
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
