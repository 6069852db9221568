"""Forked worker processes: how many to start, and the one map that runs on them.

Work that holds the GIL is split among processes, not threads. Workers
are forked, on Linux only: a forked worker shares the parent's arrays and
modules without pickling or importing them, while macOS's system
frameworks are not fork-safe and Windows has no fork. Only forked_map forks
and reaps workers, each running a fixed share of the jobs and sending its
results back down its own pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings

from .errors import MedcurveError

__all__ = ["worker_count", "forked_map"]


def worker_count(work: int, least: int) -> int:
    """Processes to split `work` units among: one per usable CPU that gets `least`; one off Linux."""
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // least))


def forked_map(fn, state, jobs: list, workers: int) -> list:
    """[fn(state, *job) for job in jobs], in job order, in `workers` forked processes.

    Worker w runs jobs[w::workers]. state reaches it through the fork,
    unpickled, so it may hold a shared mapping. Below two workers, or when
    the OS refuses a fork (one RuntimeWarning), the jobs run here. A job's
    error is raised here as it is (a RuntimeError if it cannot be pickled
    there or unpickled here), a worker that dies raises MedcurveError,
    and no worker outlives the call.
    """
    if workers < 2:
        return [fn(state, *job) for job in jobs]
    children: dict = {}  # pid -> the read end of its pipe, opened as a file, in share order
    try:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that fork() in a multi-threaded process may deadlock;
                # numpy's OpenBLAS stops its threads around a fork. Unfiltered, the
                # warning would reach the CLI as a note with a pid.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                for share in range(workers):
                    read, write = os.pipe()
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _serve(fn, state, jobs[share::workers], write)
                        children[pid] = open(read, "rb")
                    except OSError:
                        os.close(read)
                        raise
                    finally:
                        os.close(write)
        except OSError as exc:  # the OS refused a pipe or a fork
            message = f"could not fork a worker process ({exc}); the work ran in this process"
            warnings.warn(message, RuntimeWarning)
        else:
            results = [None] * len(jobs)
            for share, (pid, pipe) in enumerate(list(children.items())):
                reply = pipe.read()
                status = os.waitpid(pid, 0)[1]
                children.pop(pid).close()
                if status or not reply:  # a worker exits 0 only once its whole reply is sent
                    how = f"exit code {os.waitstatus_to_exitcode(status)}"
                    raise MedcurveError(f"a worker process died before sending its results ({how})")
                try:
                    sent, value = pickle.loads(reply)
                except Exception as exc:
                    raise RuntimeError(f"could not read a worker's reply: {exc!r}") from exc
                if not sent:
                    raise value
                results[share::workers] = value
            return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [fn(state, *job) for job in jobs]


def _serve(fn, state, jobs: list, write: int):
    """In a forked worker: run jobs, send (True, results) or (False, error) down write, and exit."""
    try:
        try:
            reply = (True, [fn(state, *job) for job in jobs])
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
        except Exception as exc:
            what = "results" if reply[0] else f"error {reply[1]!r}"
            data = pickle.dumps((False, RuntimeError(f"a worker could not send its {what}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)
