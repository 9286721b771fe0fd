"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process running or unreaped.

    A sweep forks one worker per chunk and must reap every one on every
    path; a test that runs a command in a subprocess reaps its own child.
    """
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "is still running" if pid == 0 else f"{pid} exited with status {status} unreaped"
    pytest.fail(f"a child process of the test {left}")
