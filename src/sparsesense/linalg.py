"""Dense linear algebra core.

Column-pivoted QR (pivot selection and full factors), minimum-norm least
squares via a truncated pseudoinverse, condition numbers, and seeded random
matrix generation. All operations are pure: inputs are never mutated and
outputs are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(A, name: str = "matrix", require_finite: bool = True) -> np.ndarray:
    """Validate and return A as a nonempty 2-D float64 array."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {A.shape}")
    if require_finite and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PivotResult:
    """Pivot order and R-diagonal magnitudes from column-pivoted QR.

    ``pivots`` lists the selected column indices in selection order,
    ``r_diag`` the matching |R_ii| values (non-increasing, a consequence of
    greedy norm pivoting), and ``permutation`` the full column permutation
    whose first ``len(pivots)`` entries equal ``pivots``.
    """

    pivots: np.ndarray
    r_diag: np.ndarray
    permutation: np.ndarray

    def __post_init__(self):
        piv = np.asarray(self.pivots, dtype=np.int64)
        perm = np.asarray(self.permutation, dtype=np.int64)
        diag = np.asarray(self.r_diag, dtype=np.float64)
        n = perm.size
        if piv.size > n or len(set(piv.tolist())) != piv.size:
            raise ValueError("pivots must be distinct")
        if piv.size and (piv.min() < 0 or piv.max() >= n):
            raise ValueError("pivot index out of range")
        if not np.array_equal(perm[: piv.size], piv):
            raise ValueError("permutation prefix must equal pivots")
        if diag.size != piv.size:
            raise ValueError("r_diag length must match pivots")
        if diag.size > 1 and np.any(diag[1:] > diag[:-1] * (1.0 + 1e-9)):
            raise ValueError("r_diag must be non-increasing")
        object.__setattr__(self, "pivots", _freeze(piv))
        object.__setattr__(self, "permutation", _freeze(perm))
        object.__setattr__(self, "r_diag", _freeze(diag))

    @property
    def k(self) -> int:
        return int(self.pivots.size)


def cpqr(V, k: int) -> PivotResult:
    """Select k pivot columns of V by column-pivoted Householder QR.

    Greedy: each step takes the remaining column with the largest residual
    norm (ties broken by the lowest column index), then deflates with a
    Householder reflection. The implied decomposition satisfies V P = Q R
    with Q orthogonal and R upper triangular; use :func:`cpqr_factors` when
    the factors themselves are needed.
    """
    V = as_matrix(V, "V")
    r, n = V.shape
    if not 1 <= k <= min(r, n):
        raise ValueError(f"k must be in [1, {min(r, n)}] for a {r}x{n} matrix, got {k}")
    perm, r_diag, _, _ = kernels.cpqr_select(V, k, want_q=False)
    return PivotResult(pivots=perm[:k].copy(), r_diag=r_diag, permutation=perm)


def cpqr_factors(V, k: int | None = None):
    """CPQR with assembled factors.

    Returns ``(result, Q, R)`` where ``V[:, result.permutation] == Q @ R`` up
    to roundoff. With k < min(rows, cols) the factorization is partial: R is
    upper triangular in its first k columns only.
    """
    V = as_matrix(V, "V")
    r, n = V.shape
    if k is None:
        k = min(r, n)
    if not 1 <= k <= min(r, n):
        raise ValueError(f"k must be in [1, {min(r, n)}] for a {r}x{n} matrix, got {k}")
    perm, r_diag, R, Q = kernels.cpqr_select(V, k, want_q=True)
    result = PivotResult(pivots=perm[:k].copy(), r_diag=r_diag, permutation=perm)
    return result, Q, R


def rank_cutoff(singular_values: np.ndarray, shape) -> float:
    """Truncation threshold tau = max(dims) * sigma_max * machine epsilon."""
    s = np.asarray(singular_values, dtype=np.float64)
    smax = float(s[0]) if s.size else 0.0
    return max(shape) * smax * _EPS


def lstsq_minnorm(Theta, Y, memo: dict | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(Theta) @ Y.

    Computed through the SVD with singular values at or below
    :func:`rank_cutoff` treated as zero; an all-zero Theta therefore yields
    an all-zero solution rather than an error.

    ``memo`` is an optional caller-owned dict for one Theta. The first call
    stores the truncated factors in it and later calls reuse them instead of
    factoring again, applying the same arithmetic to the same factors, so
    the solution is bit-for-bit the one a call without a memo returns. The
    caller must pass a given memo only with the Theta that filled it.
    """
    Theta = as_matrix(Theta, "Theta")
    Y = as_matrix(Y, "Y", require_finite=False)
    if Y.shape[0] != Theta.shape[0]:
        raise ValueError(
            f"row mismatch: Theta has {Theta.shape[0]} rows, Y has {Y.shape[0]}"
        )
    factors = None if memo is None else memo.get("pinv")
    if factors is None:
        U, s, Vh = np.linalg.svd(Theta, full_matrices=False)
        keep = s > rank_cutoff(s, Theta.shape)
        factors = (U[:, keep], s[keep, None], Vh[keep])
        if memo is not None:
            memo["pinv"] = factors
    U_keep, s_keep, Vh_keep = factors
    if s_keep.size == 0:
        return np.zeros((Theta.shape[1], Y.shape[1]))
    coef = (U_keep.T @ Y) / s_keep
    return Vh_keep.T @ coef


def condition_number(Theta) -> float:
    """sigma_max / sigma_min; +inf when sigma_min falls at or below the
    rank cutoff used by :func:`lstsq_minnorm`."""
    Theta = as_matrix(Theta, "Theta")
    s = np.linalg.svd(Theta, compute_uv=False)
    if s[-1] <= rank_cutoff(s, Theta.shape):
        return float("inf")
    return float(s[0] / s[-1])


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """I.i.d. standard-normal matrix from a seeded PCG64 stream.

    Identical (seed, rows, cols) reproduce the matrix bit-for-bit on one
    platform; bit-identity across platforms is not promised.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got ({rows}, {cols})")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))


def random_orthonormal_columns(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded rows x cols matrix with orthonormal columns.

    QR of a Gaussian draw, with the R diagonal forced positive so the factor
    is unique for a given draw.
    """
    if not 1 <= cols <= rows:
        raise ValueError(f"need 1 <= cols <= rows, got ({rows}, {cols})")
    G = gaussian_matrix(rows, cols, seed)
    Q, R = np.linalg.qr(G)
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
