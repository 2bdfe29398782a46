"""Basis construction contracts: SVD modes and randomized column mixtures."""

import numpy as np
import pytest

from sparsesense.basis import Basis, randomized_basis, svd_basis, truncate_basis
from sparsesense.linalg import lstsq_minnorm


def test_svd_basis_dominant_axis():
    basis = svd_basis(np.diag([3.0, 1.0]), 1)
    np.testing.assert_allclose(np.abs(basis.psi), [[1.0], [0.0]], atol=1e-12)


def test_svd_basis_orthonormal_columns():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 12))
    basis = svd_basis(X, 5)
    np.testing.assert_allclose(basis.psi.T @ basis.psi, np.eye(5), atol=1e-10)


def test_svd_basis_rank_one_projection_captures_everything():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((15, 1))
    v = rng.standard_normal((9, 1))
    X = u @ v.T
    basis = svd_basis(X, 1)
    proj = basis.psi @ (basis.psi.T @ X)
    assert np.linalg.norm(proj - X) <= 1e-9 * np.linalg.norm(X)


def test_svd_basis_sign_convention():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 8))
    basis = svd_basis(X, 4)
    for j in range(4):
        col = basis.psi[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_basis_prefix_property():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 10))
    small = svd_basis(X, 3)
    large = svd_basis(X, 7)
    np.testing.assert_allclose(small.psi, large.psi[:, :3], atol=1e-12)


def test_svd_basis_rejects_out_of_range_r():
    with pytest.raises(ValueError):
        svd_basis(np.eye(4), 5)
    with pytest.raises(ValueError):
        svd_basis(np.eye(4), 0)


def test_randomized_basis_zero_training_data():
    basis = randomized_basis(np.zeros((6, 4)), 3, seed=1)
    np.testing.assert_array_equal(basis.psi, np.zeros((6, 3)))


def test_randomized_basis_shape_allows_wide_r():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 4))
    basis = randomized_basis(X, 9, seed=2)
    assert basis.psi.shape == (6, 9)


def test_randomized_basis_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 6))
    a = randomized_basis(X, 4, seed=7)
    b = randomized_basis(X, 4, seed=7)
    np.testing.assert_array_equal(a.psi, b.psi)
    c = randomized_basis(X, 4, seed=8)
    assert not np.array_equal(a.psi, c.psi)


def test_randomized_basis_captures_low_rank_data():
    # With twice as many mixtures as the data rank, the column space of the
    # mixtures almost surely contains the data.
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 30))
    basis = randomized_basis(X, 20, seed=3)
    coeff = lstsq_minnorm(basis.psi, X)
    residual = np.linalg.norm(X - basis.psi @ coeff)
    assert residual <= 0.01 * np.linalg.norm(X)


def test_randomized_basis_columns_live_in_training_span():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 5))
    basis = randomized_basis(X, 8, seed=4)
    coeff = lstsq_minnorm(X, basis.psi)
    residual = np.linalg.norm(basis.psi - X @ coeff)
    assert residual <= 1e-8 * np.linalg.norm(basis.psi)


def test_truncate_basis_prefix():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 9))
    basis = svd_basis(X, 6)
    cut = truncate_basis(basis, 2)
    np.testing.assert_array_equal(cut.psi, basis.psi[:, :2])
    assert cut.r == 2 and cut.kind == "svd"
    assert truncate_basis(basis, 6) is basis
    with pytest.raises(ValueError):
        truncate_basis(basis, 7)


def test_basis_validation():
    with pytest.raises(ValueError):
        Basis(np.eye(3), "bogus")
