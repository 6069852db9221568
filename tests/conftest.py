import errno
import multiprocessing
import os
import sys
from multiprocessing import popen_fork

import pytest


def no_child_process_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork(monkeypatch, nth: int) -> None:
    """Refuse multiprocessing's nth fork, and every nth after it, as a full process table would.

    A pool of two workers, nth 1 or 2, then sees its nth fork refused.
    """
    launch, forks = popen_fork.Popen._launch, []

    def launch_or_refuse(self, process_obj):
        forks.append(None)
        if len(forks) % nth == 0:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return launch(self, process_obj)

    monkeypatch.setattr(popen_fork.Popen, "_launch", launch_or_refuse)


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
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    pytest.fail("a child process outlived the test")
