"""Dense linear algebra core.

Column-pivoted QR (pivot selection and full factors), minimum-norm least
squares through a pseudoinverse factored once (QR when full rank is
certified, the truncated SVD otherwise), condition numbers, and seeded random
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
    perm, r_diag, _ = kernels.cpqr_select(V, k)
    return PivotResult(pivots=perm[:k].copy(), r_diag=r_diag, permutation=perm)


def cpqr_factors(V, k: int | None = None):
    """CPQR with assembled factors.

    Returns ``(result, Q, R)`` where ``V[:, result.permutation] == Q @ R`` up
    to roundoff, Q square orthogonal and R upper triangular. The pivots and
    ``r_diag`` come from k steps of :func:`cpqr`; Q and R are the complete
    Householder QR of the permuted matrix, so with k < min(rows, cols) the
    columns after the first k are factored in permutation order, unpivoted.
    |diag R[:k]| equals ``result.r_diag`` up to roundoff.
    """
    V = as_matrix(V, "V")
    result = cpqr(V, min(V.shape) if k is None else k)
    Q, R = np.linalg.qr(V[:, result.permutation], mode="complete")
    return result, Q, R


def rank_cutoff(singular_values: np.ndarray, shape) -> float:
    """Truncation threshold tau = max(dims) * sigma_max * machine epsilon."""
    s = np.asarray(singular_values, dtype=np.float64)
    smax = float(s[0]) if s.size else 0.0
    return max(shape) * smax * _EPS


# Margin of the QR route's full-rank certificate (see _pinv): every singular
# value must lie a factor _QR_MARGIN above rank_cutoff. That is far more than
# the roundoff of the QR factors and of G at any condition number the
# certificate admits (below 1 / (_QR_MARGIN max(dims) eps), about 1e9 at 400
# rows).
_QR_MARGIN = 1e4


def _pinv(Theta: np.ndarray) -> np.ndarray:
    """pinv(Theta) as an r x p array, for a finite p x r Theta.

    From the Householder QR T = Q R of the tall orientation T (Theta when
    p >= r, Theta^T otherwise), G = R^-1 Q^T is pinv(T) when R is
    invertible, and pinv(Theta) is G or G^T. sigma_min(Theta) = 1 /
    ||R^-1||_2 >= 1 / ||G||_F and sigma_max(Theta) = ||R||_2 <= ||R||_F, so
    ||G||_F ||R||_F bounds the condition number; when it is below
    1 / (_QR_MARGIN max(dims) eps), no singular value can be at or below
    :func:`rank_cutoff` and G is the truncated pseudoinverse. Otherwise
    (rank-deficient, near-singular or all-zero Theta) G comes from the
    SVD, keeping the singular values above the cutoff.
    """
    p, r = Theta.shape
    Q, R = np.linalg.qr(Theta if p >= r else Theta.T)
    try:
        G = np.linalg.solve(R, Q.T)
    except np.linalg.LinAlgError:  # an exactly singular R
        pass
    else:
        # An overflow or an underflow (inf * 0) fails the test.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(G) * np.linalg.norm(R) * max(p, r) * _EPS
        if bound * _QR_MARGIN < 1.0:
            return G if p >= r else G.T
    U, s, Vh = np.linalg.svd(Theta, full_matrices=False)
    keep = s > rank_cutoff(s, Theta.shape)
    return (Vh[keep].T / s[keep]) @ U[:, keep].T


def lstsq_minnorm(Theta, Y, memo: dict | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(Theta) @ Y.

    Theta is factored once into its pseudoinverse G, r x p, and the
    solution is the one product G @ Y. G comes from the Householder QR of
    Theta, or of Theta^T when Theta is wide, when R certifies that no
    singular value is at or below :func:`rank_cutoff` (by a margin of
    ``_QR_MARGIN``; see :func:`_pinv`), and from the SVD otherwise, with
    the singular values at or below the cutoff treated as zero; an
    all-zero Theta therefore yields an all-zero solution rather than an
    error.

    ``memo`` is an optional caller-owned dict. A call stores Theta and G in
    it, and a later call with that same Theta object (``is``; its entries
    unchanged) reuses G instead of factoring again, so the solution is
    bit-for-bit the one a call without a memo returns. A call with any
    other Theta factors it and refills the memo. Theta is scanned for NaN
    and Inf only when it is factored.
    """
    hit = None if memo is None else memo.get("pinv")
    G = hit[1] if hit is not None and hit[0] is Theta else None
    key, Theta = Theta, as_matrix(Theta, "Theta", require_finite=G is None)
    Y = as_matrix(Y, "Y", require_finite=False)
    if Y.shape[0] != Theta.shape[0]:
        raise ValueError(
            f"row mismatch: Theta has {Theta.shape[0]} rows, Y has {Y.shape[0]}"
        )
    if G is None:
        G = _pinv(Theta)
        if memo is not None:
            memo["pinv"] = key, G
    return G @ Y


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
