"""forked_map: results in job order, one typed error for a worker that dies, nothing left behind."""

import mmap
import os
import signal
import sys
import threading
import time
import warnings

import pytest

from medcurve.errors import MedcurveError
from medcurve.forking import forked_map

from conftest import no_child_process_remains, refuse_fork

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")

JOBS = [(i,) for i in range(7)]


@pytest.fixture(autouse=True)
def no_call_hangs():
    """Fail, instead of waiting forever, a test whose forked_map waits on a worker for 30 s."""

    def hung(signum, frame):
        raise AssertionError("forked_map hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def offset(base, i):
    return base + i


def test_results_come_back_in_job_order_from_each_worker():
    parent = os.getpid()

    def where(base, i):
        return base + i, os.getpid()

    got = forked_map(where, 10, JOBS, 3)
    assert [value for value, _ in got] == [10 + i for i in range(7)]
    # worker w ran jobs[w::3], none of them here
    pids = [pid for _, pid in got]
    assert parent not in pids and len(set(pids)) == 3
    assert all(pids[i] == pids[i % 3] for i in range(7))
    assert forked_map(offset, 10, JOBS, 1) == [10 + i for i in range(7)]
    no_child_process_remains()


# shared with the workers: set by the "cut" case's worker 1 as it kills itself
CUT = mmap.mmap(-1, 1)


def worker_fault(kind, i):
    if kind == "cut":
        # worker 1 dies while its reply, far more than a pipe holds, waits for
        # this process to read worker 0's, which waits for that death
        if i % 2 == 0:
            while not CUT[0]:
                time.sleep(0.01)
            return i

        def die():
            CUT[0] = 1
            os.kill(os.getpid(), signal.SIGKILL)

        threading.Timer(0.1, die).start()
        return bytes(2**20)
    if kind == "exits":
        os._exit(0)
    if kind == "killed":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "raises":
        raise ValueError(threading.Lock())
    return threading.Lock()


@pytest.mark.parametrize(
    "kind, error, match",
    [
        ("exits", MedcurveError, r"a worker process died .*\(exit code 0\)"),
        ("killed", MedcurveError, r"a worker process died .*\(exit code -9\)"),
        ("cut", MedcurveError, r"a worker process died .*\(exit code -9\)"),
        ("raises", RuntimeError, r"could not send its error ValueError\(<unlocked _thread.lock"),
        ("returns", RuntimeError, r"could not send its results: cannot pickle '_thread.lock'"),
    ],
)
def test_every_worker_fault_is_one_typed_error(kind, error, match):
    CUT[0] = 0
    with pytest.raises(error, match=match):
        forked_map(worker_fault, kind, JOBS, 2)
    no_child_process_remains()


@pytest.mark.parametrize("nth", [1, 2])
def test_refused_forks_leave_no_file_descriptor_open(monkeypatch, nth):
    before = sorted(os.listdir("/proc/self/fd"))
    refuse_fork(monkeypatch, nth)
    for _ in range(3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert forked_map(offset, 10, JOBS, 2) == [10 + i for i in range(7)]
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "could not fork a worker process" in str(caught[0].message)
    assert sorted(os.listdir("/proc/self/fd")) == before
    no_child_process_remains()
