"""Forked processes that run a command's O(n) passes: it holds no n-row array.

Workers.fork starts min(usable CPUs, tasks) of them with a state, whose
shared_empty arrays they share.  They are forked, not spawned, so they need
not import numpy again (0.35 s at n = 1e6).  Workers.map yields fn(state,
task, *args) of each task in order, under the caller's numpy error state:
in the workers if both they and the tasks are two or more, otherwise here.
A task's error is raised at its result, so the earliest one is seen.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def shared_empty(shape, dtype) -> np.ndarray:
    """A zero-filled array in a shared anonymous mmap."""
    import mmap  # here, so importing nbmle stays cheap

    size = int(np.prod(shape))
    buf = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype, size).reshape(shape)


def _forks(tasks: int) -> int:
    """How many workers fork(state, tasks) starts: min(usable CPUs, tasks)
    when that is two or more and the platform can fork, else 0.  Below two
    it does not import multiprocessing."""
    count = min(usable_cpus(), tasks)
    if count < 2:
        return 0
    import multiprocessing  # here, so importing nbmle stays cheap
    return count if "fork" in multiprocessing.get_all_start_methods() else 0


def condition(tasks: int):
    """A Condition for fork(state, tasks)'s workers: threading's if none fork."""
    if not _forks(tasks):
        return threading.Condition()
    import multiprocessing
    return multiprocessing.Condition()


def _adopt(state) -> None:  # in a worker, at its start
    global _state
    _state = state


def _call(job):
    fn, task, args, err = job
    with np.errstate(**err):
        return fn(_state, task, *args)


class Workers:
    """One command's forked workers, or none; leaving the context joins them."""

    def __init__(self):
        self.state, self.count, self._pool = None, 1, None

    def fork(self, state, tasks: int) -> None:
        self.state = state
        count = _forks(tasks)
        if count:
            import multiprocessing
            self._pool = multiprocessing.get_context("fork").Pool(
                count, _adopt, (state,))
            self.count = count

    def map(self, fn, tasks, *args):
        if self._pool is None or len(tasks) < 2:
            return (fn(self.state, task, *args) for task in tasks)
        err = np.geterr()  # the caller's, which a forked worker may not have
        return self._pool.imap(_call, [(fn, task, args, err) for task in tasks])

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, kind, *_) -> None:
        pool, self._pool, self.count = self._pool, None, 1
        if pool is not None:
            if kind is not None:
                pool.terminate()
            pool.close()
            pool.join()
