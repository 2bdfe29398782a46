"""Reconstruction bases: truncated SVD modes or randomized column mixtures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, gaussian_matrix

BASIS_KINDS = ("svd", "randomized")


@dataclass(frozen=True)
class Basis:
    """An n x r mode matrix, finite and read-only.

    SVD bases have orthonormal columns; randomized bases are raw column
    mixtures of the training data (deliberately not orthonormalized, the
    pseudoinverse in the reconstruction absorbs their conditioning).
    """

    psi: np.ndarray

    def __post_init__(self):
        psi = as_matrix(self.psi, "psi").view()
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def r(self) -> int:
        return self.psi.shape[1]


# The Gram route squares the condition number, so it is taken only when
# G - _GRAM_RCOND ||G||_F I is positive definite. ||G||_F >= lambda_max, so
# that means s_min > 1e-4 s_max; otherwise the modes come from the SVD.
_GRAM_RCOND = 1e-8
# Columns of X V formed per matrix product on the X^T X route. The blocks are
# fixed, not sized to r, so every product, and every mode, has the same bits
# at every r.
_BLOCK = 32


def _gram_modes(X: np.ndarray, r: int) -> np.ndarray | None:
    """The leading r left singular vectors of X as an n x r array, from the
    eigendecomposition of its smaller Gram matrix; None when that Gram
    matrix is too ill-conditioned for it (see :func:`svd_basis`)."""
    n, m = X.shape
    # Entries past about 1e77 overflow ||G||_F, and past 1e154 G itself, to
    # inf or nan; the SVD takes such data.
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X if m <= n else X @ X.T
        scale = np.linalg.norm(G)
    if not scale < np.inf:
        return None
    # The route test is one Cholesky factorization, a fraction of the cost
    # of eigh, so data sent to the SVD pays only it and the Gram product.
    shifted = G.copy()
    shifted.flat[:: len(G) + 1] -= _GRAM_RCOND * scale
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    del shifted
    V = np.linalg.eigh(G)[1][:, ::-1]  # eigh sorts ascending
    if m > n:
        return V[:, :r].copy()
    # U = X V / s, re-orthonormalized column by column with classical
    # Gram-Schmidt applied twice; the scale 1 / s drops out in the final
    # normalization. Row j of U depends only on rows < j.
    U = np.empty((r, n))
    for start in range(0, r, _BLOCK):
        block = V[:, start : start + _BLOCK].T @ X.T
        for j in range(start, min(start + _BLOCK, r)):
            u = block[j - start]
            for _ in range(2):
                u -= (U[:j] @ u) @ U[:j]
            U[j] = u / np.linalg.norm(u)
    return U.T.copy()


def svd_basis(Xtr, r: int) -> Basis:
    """Basis of the first r left singular vectors of the training matrix.

    The modes come from the eigendecomposition of the smaller Gram matrix,
    Sirovich's method of snapshots: for an n x m matrix X with m <= n, the
    eigenvectors V of X^T X give U = X V / s, re-orthonormalized column by
    column; for m > n, the eigenvectors of X X^T are U. Squaring X squares
    its condition number, so when the Gram matrix G minus ``_GRAM_RCOND``
    ||G||_F times the identity has no Cholesky factor (rank-deficient,
    zero-variance or near-singular data; lambda_min <= 1e-8 lambda_max up
    to the factor ||G||_F / lambda_max, which is near 1 for decaying
    spectra), or when G overflows, the modes come from ``np.linalg.svd``
    instead. That test costs the Gram product and one Cholesky
    factorization, so such data pays those on top of the SVD but never the
    eigendecomposition.

    Modes have the same bits at every r: ``svd_basis(X, r).psi`` equals
    ``svd_basis(X, R).psi[:, :r]`` for r <= R. That is why the route is
    chosen from the whole spectrum, never from s_r, and why column j is
    computed from the columns before it only.
    """
    Xtr = as_matrix(Xtr, "Xtr")
    n, m = Xtr.shape
    if not 1 <= r <= min(n, m):
        raise ValueError(f"r must be in [1, {min(n, m)}] for a {n}x{m} matrix, got {r}")
    psi = _gram_modes(Xtr, r)
    if psi is None:
        psi = np.linalg.svd(Xtr, full_matrices=False)[0][:, :r].copy()
    # Fixed sign convention: the largest-magnitude entry of each column is
    # made positive, so downstream pivot sequences are reproducible. The rule
    # is per column, so it keeps the prefix property.
    flip = psi[np.abs(psi).argmax(axis=0), np.arange(r)] < 0.0
    psi[:, flip] *= -1.0
    return Basis(psi)


def randomized_basis(Xtr, r: int, seed: int) -> Basis:
    """Basis of r seeded Gaussian column mixtures of the training matrix.

    r may exceed min(n, m); the extra columns are then linearly dependent,
    which the minimum-norm reconstruction tolerates.
    """
    Xtr = as_matrix(Xtr, "Xtr")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    G = gaussian_matrix(Xtr.shape[1], r, seed)
    return Basis(Xtr @ G)


def truncate_basis(basis: Basis, r: int) -> Basis:
    """Column-prefix truncation to r modes.

    For an SVD basis this equals rebuilding with the smaller r; for a
    randomized basis it is simply the leading columns of the given draw.
    """
    if not 1 <= r <= basis.r:
        raise ValueError(f"r must be in [1, {basis.r}], got {r}")
    if r == basis.r:
        return basis
    return Basis(basis.psi[:, :r])
