import errno
import glob
import os
import signal
import sys

import pytest


def no_child_process_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork(monkeypatch, nth: int) -> None:
    """Refuse the nth os.fork, and every nth after it, as a full process table would.

    forked_map with two workers, nth 1 or 2, then sees its nth fork refused.
    """
    fork, forks = os.fork, []

    def fork_or_refuse():
        forks.append(None)
        if len(forks) % nth == 0:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_or_refuse)


def child_pids() -> list:
    """This process's children, by the parent pid in each /proc/<pid>/stat.

    /proc/self/task/*/children would list them, but only kernels built with
    CONFIG_PROC_CHILDREN have that file.
    """
    pids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the process has gone
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.split("/")[2]))
    return pids


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Fail a test that leaves a child process, after killing it so that pytest can exit."""
    yield
    if sys.platform != "linux":
        return
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    for pid in child_pids():
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail("a child process outlived the test")
