"""Reconstruction bases: truncated SVD modes or randomized column mixtures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, gaussian_matrix

BASIS_KINDS = ("svd", "randomized")


@dataclass(frozen=True)
class Basis:
    """An n x r mode matrix and the kind of basis it is.

    SVD bases have orthonormal columns; randomized bases are raw column
    mixtures of the training data (deliberately not orthonormalized, the
    pseudoinverse in the reconstruction absorbs their conditioning).
    """

    psi: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"kind must be one of {BASIS_KINDS}, got {self.kind!r}")
        psi = as_matrix(self.psi, "psi").view()
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def r(self) -> int:
        return self.psi.shape[1]


def svd_basis(Xtr, r: int) -> Basis:
    """Basis of the first r left singular vectors of the training matrix."""
    Xtr = as_matrix(Xtr, "Xtr")
    n, m = Xtr.shape
    if not 1 <= r <= min(n, m):
        raise ValueError(f"r must be in [1, {min(n, m)}] for a {n}x{m} matrix, got {r}")
    U = np.linalg.svd(Xtr, full_matrices=False)[0]
    # Fixed sign convention: the largest-magnitude entry of each column is
    # made positive, so downstream pivot sequences are reproducible. The rule
    # is per column, so a prefix of this basis is the basis at a smaller r.
    psi = U[:, :r].copy()
    flip = psi[np.abs(psi).argmax(axis=0), np.arange(r)] < 0.0
    psi[:, flip] *= -1.0
    return Basis(psi, "svd")


def randomized_basis(Xtr, r: int, seed: int) -> Basis:
    """Basis of r seeded Gaussian column mixtures of the training matrix.

    r may exceed min(n, m); the extra columns are then linearly dependent,
    which the minimum-norm reconstruction tolerates.
    """
    Xtr = as_matrix(Xtr, "Xtr")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    G = gaussian_matrix(Xtr.shape[1], r, seed)
    return Basis(Xtr @ G, "randomized")


def truncate_basis(basis: Basis, r: int) -> Basis:
    """Column-prefix truncation to r modes.

    For an SVD basis this equals rebuilding with the smaller r; for a
    randomized basis it is simply the leading columns of the given draw.
    """
    if not 1 <= r <= basis.r:
        raise ValueError(f"r must be in [1, {basis.r}], got {r}")
    if r == basis.r:
        return basis
    return Basis(basis.psi[:, :r], basis.kind)
