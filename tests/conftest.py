import os

import pytest

from tverskyci import run_simulation

from tests._reference import REFERENCE_CONFIG


@pytest.fixture(scope="session")
def reference_simulation():
    """Report and kept estimates of the reference experiment, run once per
    session."""
    report = run_simulation(REFERENCE_CONFIG)
    return report, report.estimates


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or not yet reaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind: os.waitpid(-1, os.WNOHANG) gave {left}")
