"""Shared fixtures."""

import pytest

from inertdrift import _kernels


@pytest.fixture
def numba_backend(monkeypatch):
    """Make ``backend="numba"`` runnable whether or not numba imports.

    Without numba the fallback ``njit`` returns the plain function, so the
    loop kernels run interpreted with the same arithmetic they compile to.
    """
    if not _kernels.HAVE_NUMBA:
        monkeypatch.setattr(_kernels, "HAVE_NUMBA", True)
