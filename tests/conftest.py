"""Suite-wide guards and fixtures."""

import os
from dataclasses import replace

import pytest

from proxiq import harness


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


@pytest.fixture
def understate_claims(monkeypatch):
    """understate_claims(scale) plants a lie in every cell oracle the harness
    builds from then on: its certificate claims scale times the delta its
    noise needs.  The noise, and so every answer, stays as it was."""
    def plant(scale):
        real = harness._cell_oracle

        def liar(*args, **kwargs):
            oracle = real(*args, **kwargs)
            oracle.certificate = replace(oracle.certificate,
                                         delta=oracle.certificate.delta * scale)
            return oracle

        monkeypatch.setattr(harness, "_cell_oracle", liar)

    return plant
