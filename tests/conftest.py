"""Checks every test shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Every child process a test starts, forked workers included, is reaped by its end."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
