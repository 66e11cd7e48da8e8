import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped: the
    package's forked workers and helpers have exited, and been waited for,
    when the call that forked them returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process behind (waitpid gave pid %d)"
                % pid)
