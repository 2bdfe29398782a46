"""Basis construction contracts: SVD modes and randomized column mixtures."""

import numpy as np
import pytest

from sparsesense.basis import (
    _GRAM_RCOND,
    Basis,
    randomized_basis,
    svd_basis,
    truncate_basis,
)
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


# ---------------------------------------------------------------------------
# SVD modes by the method of snapshots, and the SVD fallback
# ---------------------------------------------------------------------------

_SVD = np.linalg.svd


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices np.linalg.svd is called on."""
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return _SVD(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices np.linalg.eigh is called on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _svd_modes(X, r):
    """The first r left singular vectors of X from np.linalg.svd, with the
    sign rule of svd_basis."""
    psi = _SVD(X, full_matrices=False)[0][:, :r].copy()
    psi[:, psi[np.abs(psi).argmax(axis=0), np.arange(r)] < 0.0] *= -1.0
    return psi


def _power_law(n, m, ratio, seed=0, rank=None):
    """n x m data of the given rank (default min(n, m)) with singular values
    j**-a, a chosen so that s_min^2 / s_max^2 = ratio. Near ratio =
    _GRAM_RCOND these spectra decay so fast that ||X^T X||_F is within 0.1%
    of s_max^2, so the route test, lambda_min > _GRAM_RCOND ||G||_F, splits
    them there."""
    k = rank or min(n, m)
    a = -0.5 * np.log(ratio) / np.log(k)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((m, k)))[0]
    return (U * np.arange(1.0, k + 1) ** -a) @ V.T


# (120, 50) takes the X^T X route, (50, 120) the X X^T route.
_ROUTES = [(120, 50), (50, 120)]


@pytest.mark.parametrize("shape", _ROUTES)
@pytest.mark.parametrize("ratio", [1e-2, 1e-5, 2 * _GRAM_RCOND])
def test_gram_modes_are_orthonormal_svd_modes(svd_calls, shape, ratio):
    X = _power_law(*shape, ratio)
    R = min(shape)
    psi = svd_basis(X, R).psi
    assert svd_calls == []
    assert np.abs(psi.T @ psi - np.eye(R)).max() <= 1e-14
    cos = np.abs(np.sum(psi * _svd_modes(X, R), axis=0))
    assert cos.min() >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "shape,rank", [*((shape, None) for shape in _ROUTES), ((120, 50), 40)],
    ids=["gram-XtX", "gram-XXt", "svd-fallback"],
)
def test_svd_basis_modes_have_the_same_bits_at_every_r(svd_calls, shape, rank):
    X = _power_law(*shape, 1e-4, seed=1, rank=rank)
    R = min(shape)
    full = svd_basis(X, R).psi
    for r in (1, 7, 33, R):
        psi = svd_basis(X, r).psi
        assert psi.tobytes() == np.ascontiguousarray(full[:, :r]).tobytes()
    assert len(svd_calls) == (0 if rank is None else 5)


def _fallback_case(kind):
    """(X, r) of data the Gram route must refuse."""
    if kind == "rank-deficient":
        return _power_law(120, 50, 1e-2, seed=2, rank=30), 10
    if kind == "rank-deficient-wide":
        return _power_law(50, 120, 1e-2, seed=3, rank=30), 10
    if kind == "zero-variance":
        return np.full((30, 20), 2.5), 3
    if kind == "zero":
        return np.zeros((30, 20)), 2
    if kind == "overflowing-gram":
        return _power_law(60, 20, 1e-2, seed=7) * 1e200, 5
    if kind == "overflowing-gram-norm":
        return _power_law(20, 60, 1e-2, seed=8) * 1e100, 5
    if kind == "r-above-rank":
        return _power_law(40, 25, 1e-2, seed=4, rank=3), 5
    if kind == "below-threshold":
        return _power_law(120, 50, 0.5 * _GRAM_RCOND, seed=5), 20
    return _power_law(50, 120, 0.5 * _GRAM_RCOND, seed=6), 20


@pytest.mark.parametrize(
    "kind",
    [
        "rank-deficient", "rank-deficient-wide", "zero-variance", "zero",
        "overflowing-gram", "overflowing-gram-norm", "r-above-rank",
        "below-threshold",
        "below-threshold-wide",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svd_basis_falls_back_to_the_svd(svd_calls, eigh_calls, kind):
    X, r = _fallback_case(kind)
    psi = svd_basis(X, r).psi
    assert svd_calls == [X.shape]
    assert eigh_calls == []  # the route test is a Cholesky factorization
    assert psi.tobytes() == _svd_modes(X, r).tobytes()
