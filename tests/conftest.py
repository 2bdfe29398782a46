"""Fixtures shared by several test modules."""

import pytest

from sparsesense import kernels


@pytest.fixture
def blas_preset():
    """Set the process's BLAS thread count; restored after the test."""
    control = kernels._blas_control()
    if control is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    get, set_ = control
    saved = get()
    yield set_
    set_(saved)
