"""Forked worker processes: how many to start, and a pool that leaves none behind.

Work that holds the GIL is split among processes, not threads. Workers
are forked, on Linux only: a forked worker shares the parent's arrays and
modules without pickling or importing them, while macOS's system
frameworks are not fork-safe and Windows has no fork.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager

__all__ = ["worker_count", "forked_map", "worker_died"]


def worker_count(work: int, least: int) -> int:
    """Processes to split `work` units among: one per usable CPU that gets `least` or more.

    One off Linux, where nothing is forked.
    """
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // least))


# what a forked worker's jobs call and read; set only in the worker, by _start
_fn = None
_state = None


def _start(fn, state) -> None:
    global _fn, _state
    _fn, _state = fn, state


def _run(job: tuple):
    return _fn(_state, *job)


@contextmanager
def forked_map(fn, state, jobs: list, workers: int):
    """Yield fn(state, *job) for each job, in job order, run in `workers` forked processes.

    state reaches the workers through the fork, unpickled, so it may hold a
    shared mapping; each job and its result are pickled. fn must be a
    module-level function. The pool is shut down, and its workers joined,
    when the block exits on any path. A worker that dies makes the results
    raise BrokenProcessPool instead of waiting for it (worker_died).
    """
    # about 30 ms of imports that only a forking run needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_start, initargs=(fn, state)
    )
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a multi-threaded process may
            # deadlock; numpy's OpenBLAS has started its threads by now, and
            # it shuts them down around a fork. Unfiltered, the warning would
            # reach the CLI as a note carrying a pid.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            results = pool.map(_run, jobs)  # forks the workers, queues every job
        yield results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def worker_died(exc: BaseException) -> bool:
    """Whether exc is a forked_map pool's report that one of its workers died.

    Only a loaded pool module raises it, so the check imports nothing.
    """
    process = sys.modules.get("concurrent.futures.process")
    return process is not None and isinstance(exc, process.BrokenProcessPool)
