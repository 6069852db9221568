"""Forked worker processes: how many to start, and the one map that runs on them.

Work that holds the GIL is split among processes, not threads. Workers
are forked, on Linux only: a forked worker shares the parent's arrays and
modules without pickling or importing them, while macOS's system
frameworks are not fork-safe and Windows has no fork. Only forked_map
starts and stops workers, and runs their jobs here when they cannot be.
"""

from __future__ import annotations

import os
import sys
import warnings

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


def forked_map(fn, state, jobs: list, workers: int) -> list:
    """[fn(state, *job) for job in jobs], in job order, in `workers` forked processes.

    Below two workers, or when the OS refuses a fork, the jobs run in this
    process; a refusal kills the workers already forked and warns once
    (RuntimeWarning). state reaches the workers through the fork, unpickled,
    so it may hold a shared mapping; each job and its result are pickled.
    A job's error is raised here, a worker that dies raises
    BrokenProcessPool (worker_died), and no worker outlives the call.
    """
    if workers > 1:
        # about 30 ms of imports that only a forking run needs
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, context, initializer=_start, initargs=(fn, state))
        try:
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns that fork() in a multi-threaded process may
                    # deadlock; numpy's OpenBLAS shuts its threads down around a fork.
                    # Unfiltered, the warning would reach the CLI as a note with a pid.
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                    )
                    results = pool.map(_run, jobs)  # forks every worker, queues every job
            except OSError as exc:  # the OS refused a fork
                # the workers forked before it wait for jobs the pool never
                # sends, and shutting the pool down does not stop them
                for process in pool._processes.values():
                    process.kill()
                    process.join()
                message = f"could not fork a worker process ({exc}); the work ran in this process"
                warnings.warn(message, RuntimeWarning)
            else:
                return list(results)  # a job's own error, OSError too, is raised here
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return [fn(state, *job) for job in jobs]


def worker_died(exc: BaseException) -> bool:
    """Whether exc is a forked_map pool's report that one of its workers died.

    Only a loaded pool module raises it, so the check imports nothing.
    """
    process = sys.modules.get("concurrent.futures.process")
    return process is not None and isinstance(exc, process.BrokenProcessPool)
