"""Hot numeric kernels.

Two inner loops dominate runtime: column-pivoted Householder QR (sensor
ranking) and the greedy smallest-singular-value row scan (principled
oversampling). Both are vectorized numpy.

CPQR picks the remaining column with the largest residual norm (ties to the
lowest index), deflates with one Householder reflection per step as a
rank-one block update, and downdates the residual norms, recomputing any
that have lost too much of their last exact value to cancellation.

The sigma_min scan runs each greedy step in three phases:

* bracket: one ``eigh`` of the current Gram matrix M turns every candidate's
  lambda_min(M + x x^T) into the root of a rank-one secular equation, solved
  for all candidates at once in the variable shifted by lambda_min(M);
* prune: candidates whose upper bracket falls below the best lower bracket
  by more than a stated tolerance are dropped;
* confirm: when more than one candidate survives, the survivors are
  evaluated with the stacked ``eigvalsh`` of an exhaustive scan and the
  first maximum wins.

A step costs one n x r x r product, O(n r) per root-finding iteration and a
few r x r eigenproblems, instead of n of them. Because the bracket error is
far below the tolerance, the exhaustive scan's pick always survives and the
confirmation reproduces it bit for bit, ties to the lowest index included.
The kernel micro section of a traced benchmark run
(``perfbench/run.py --trace 1``) times both kernels.

:func:`single_blas_thread` pins the OpenBLAS that numpy links to one thread
for the duration of a block. The sweep engine runs every trial inside it, so
its pool workers are the only parallelism and results do not depend on how
many threads the machine's BLAS would otherwise use.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

# Residual column norms are downdated after each reflection; once an estimate
# has lost this fraction of its last exactly-computed value, cancellation may
# dominate and the norm is recomputed from scratch.
_NORM_GUARD = 1e-10


# ---------------------------------------------------------------------------
# BLAS thread pin
# ---------------------------------------------------------------------------

# (get, set) thread-count symbols of the OpenBLAS builds numpy links, in the
# order they are tried: scipy-openblas wheels, 64-bit-index OpenBLAS, plain
# OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _numpy_blas_paths() -> list[str]:
    """OpenBLAS libraries bundled with numpy: ``numpy.libs/`` in manylinux
    wheels, ``numpy/.dylibs/`` in macOS wheels."""
    import glob

    root = os.path.dirname(np.__file__)
    patterns = (
        os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),
        os.path.join(root, ".dylibs", "*openblas*"),
    )
    return sorted(path for pattern in patterns for path in glob.glob(pattern))


def _load_blas_control(paths):
    """(get, set) thread-count functions of the first library in paths that
    exports a known symbol pair, or None."""
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def _blas_control():
    """numpy's BLAS thread controls, or None if unknown. Looked up on first
    use (glob and ctypes included), so importing this module stays cheap."""
    return _load_blas_control(_numpy_blas_paths())


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextmanager
def single_blas_thread():
    """Run the block with numpy's BLAS on one thread.

    Reentrant and shared by all threads: the first entry saves the BLAS
    thread count and sets it to 1, the last exit restores it, and nested or
    concurrent entries in between only count. Without a controllable
    OpenBLAS (see :func:`blas_record`) it does nothing.
    """
    global _pin_depth, _pin_saved
    control = _blas_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def blas_record() -> dict[str, str]:
    """The BLAS numpy was built with, and whether sweeps pin it.

    ``blas`` is the build's name and version; ``blas-threads`` is ``1`` when
    :func:`single_blas_thread` controls the library and ``unmanaged`` when
    it cannot, in which case trials use whatever thread count BLAS picks.
    """
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):  # pragma: no cover - no build metadata
        name = "unknown"
    return {"blas": name, "blas-threads": "1" if _blas_control() else "unmanaged"}


# ---------------------------------------------------------------------------
# Column-pivoted Householder QR
# ---------------------------------------------------------------------------


def cpqr_select(V: np.ndarray, k: int, want_q: bool = False):
    """Run k steps of CPQR on a copy of V.

    Returns ``(perm, r_diag, R, Q)`` where ``perm`` is the full column
    permutation (its first k entries are the pivots in selection order),
    ``r_diag`` the |R_ii| magnitudes, ``R`` the transformed matrix (upper
    triangular in its first k columns) and ``Q`` the accumulated orthogonal
    factor, or None unless ``want_q``. The input is never mutated.

    Each step swaps the remaining column with the largest residual norm into
    place (the first maximum, so exact ties go to the lowest index) and
    deflates with a Householder reflection; Q is accumulated only when
    requested, to keep the placement hot path lean.
    """
    W = np.array(V, dtype=np.float64, order="C", copy=True)
    r, n = W.shape
    Q = np.eye(r) if want_q else None
    perm = np.arange(n)
    r_diag = np.zeros(k)
    norms2 = np.einsum("ij,ij->j", W, W)
    orig2 = norms2.copy()

    for step in range(k):
        best = step + int(np.argmax(norms2[step:]))
        if best != step:
            W[:, [step, best]] = W[:, [best, step]]
            perm[[step, best]] = perm[[best, step]]
            norms2[[step, best]] = norms2[[best, step]]
            orig2[[step, best]] = orig2[[best, step]]

        x = W[step:, step]
        alpha = float(np.sqrt(np.dot(x, x)))
        r_diag[step] = alpha
        if alpha == 0.0:
            # Residual block is numerically zero; remaining pivots fall
            # through in lowest-index order with zero diagonals.
            continue

        sign = 1.0 if x[0] >= 0.0 else -1.0
        v = x.copy()
        v[0] += sign * alpha
        beta = 2.0 / float(np.dot(v, v))

        W[step, step] = -sign * alpha
        W[step + 1 :, step] = 0.0
        if step + 1 < n:
            block = W[step:, step + 1 :]
            block -= np.outer(beta * v, v @ block)

        if Q is not None:
            qb = Q[:, step:]
            qb -= np.outer(qb @ v, beta * v)

        if step + 1 < n:
            t = W[step, step + 1 :]
            est = norms2[step + 1 :] - t * t
            stale = (est < _NORM_GUARD * orig2[step + 1 :]) | (est < 0.0)
            if np.any(stale):
                cols = step + 1 + np.nonzero(stale)[0]
                fresh = np.einsum("ij,ij->j", W[step + 1 :, cols], W[step + 1 :, cols])
                est[np.nonzero(stale)[0]] = fresh
                orig2[cols] = fresh
            norms2[step + 1 :] = est

    return perm, r_diag, W, Q


# ---------------------------------------------------------------------------
# Greedy smallest-singular-value oversampling scan
# ---------------------------------------------------------------------------


# A candidate whose lambda_min bracket tops out more than this fraction of the
# step's scale (max |lambda(M)| + max ||x||^2) below the best lower bracket
# cannot be the exhaustive scan's pick: eigh/eigvalsh and the secular
# evaluation err by O(r eps) of that scale, orders of magnitude below it.
_PRUNE_RTOL = 1e-10
# Bisection alone closes a bracket to that tolerance in about 34 iterations;
# rows still open at the cap simply go on to the confirmation.
_MAX_ROOT_ITERS = 64


def _secular_brackets(z1sq, zsq, d, tol):
    """Brackets [lo, hi] on the root t of each row's secular equation.

    With M = U diag(lam) U^T, z = U^T x and d_j = lam_j - lam_1 >= 0,
    lambda_min(M + x x^T) = lam_1 + t, where t in [0, d_2] is the root of
    g(t) = t (1 + phi(t)) - z_1^2 and phi(t) = sum_{j>=2} z_j^2 / (d_j - t).
    g is increasing there and h(t) = z_1^2 / (1 + phi(t)) is decreasing with
    h(t) = t at the root, so every evaluation brackets the root from both
    sides: [h(t), t] when g(t) >= 0, [t, h(t)] otherwise. The next iterate is
    the root of a rational model that keeps the pole at 0 exact and fits phi
    by P / (d_2 - t) + Q through its value and slope (Bunch, Nielsen &
    Sorensen 1978), with a bisection fallback when it leaves the bracket.
    Rows are dropped from the iteration once their bracket is narrower than
    tol or tops out below the best lower bracket minus tol, and the loop ends
    when a single row can still win.
    """
    c = z1sq.size
    d2 = d[0]
    lo, hi, t = np.zeros(c), np.full(c, d2), np.zeros(c)
    best = 0.0
    act = np.arange(c)
    for _ in range(_MAX_ROOT_ITERS):
        ta, z1a = t[act], z1sq[act]
        inv = 1.0 / (d - ta[:, None])
        wz = zsq[act] * inv
        phi = wz.sum(axis=1)
        dphi = (wz * inv).sum(axis=1)
        h = z1a / (1.0 + phi)
        right = ta * (1.0 + phi) >= z1a
        a_lo = np.maximum(lo[act], np.where(right, h, ta))
        a_hi = np.minimum(hi[act], np.where(right, ta, h))
        lo[act], hi[act] = a_lo, a_hi
        best = max(best, float(a_lo.max()))
        w = d2 - ta
        qa = 1.0 + phi - w * dphi
        qb = qa * d2 + z1a + w * w * dphi
        qc = z1a * d2
        tn = 2.0 * qc / (qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)))
        t[act] = np.where((tn > a_lo) & (tn < a_hi), tn, 0.5 * (a_lo + a_hi))
        act = act[(a_hi >= best - tol) & (a_hi - a_lo > tol)]
        if act.size == 0 or np.count_nonzero(hi >= best - tol) == 1:
            break
    return lo, hi


def _sigma_min_survivors(M, rows):
    """Ascending indices of the rows x that may maximize lambda_min(M + x x^T).

    Always contains the exhaustive scan's pick: a row is dropped only when
    its upper bracket lies more than the stated tolerance below another
    row's lower bracket.
    """
    lam, U = np.linalg.eigh(M)
    zsq = np.square(rows @ U)
    z1sq, zsq = zsq[:, 0], zsq[:, 1:]
    d = lam[1:] - lam[0]
    tol = _PRUNE_RTOL * (np.abs(lam).max() + (z1sq + zsq.sum(axis=1)).max())
    if d.size == 0:
        # r = 1: the update is the scalar lam_1 + x^2.
        lo = hi = z1sq
    elif d[0] <= 0.0:
        # A repeated lam_1 survives every rank-one update; only the exact
        # arithmetic can order the rows.
        return np.arange(rows.shape[0])
    else:
        lo, hi = _secular_brackets(z1sq, zsq, d, tol)
    return np.nonzero(hi >= lo.max() - tol)[0]


def sigma_min_tail(psi: np.ndarray, prefix: np.ndarray, count: int) -> np.ndarray:
    """Indices of `count` greedy sigma_min-maximizing rows appended to prefix.

    Each step appends the remaining row x that maximizes lambda_min(M + x x^T),
    M being the Gram matrix of the rows chosen so far (equivalently sigma_min
    of the grown measurement matrix); ties go to the lowest row index. A step
    brackets every candidate's lambda_min through the secular equation of the
    rank-one update and prunes the candidates that cannot win. A lone
    survivor is the pick; several are confirmed with a stacked ``eigvalsh``
    of M + x x^T, the arithmetic of an exhaustive scan. The picks are
    therefore the exhaustive scan's picks, and the greedy is
    prefix-consistent: the first j of `count` picks are the picks for
    count = j.
    """
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    n = psi.shape[0]
    selected = np.zeros(n, dtype=np.bool_)
    selected[prefix] = True
    base = psi[prefix]
    M = np.ascontiguousarray(base.T @ base)
    out = np.empty(count, dtype=np.int64)
    for step in range(count):
        cand = np.nonzero(~selected)[0]
        rows = psi[cand]
        keep = _sigma_min_survivors(M, rows)
        pick = keep[0]
        if keep.size > 1:
            rows = rows[keep]
            stack = M[None, :, :] + rows[:, :, None] * rows[:, None, :]
            pick = keep[int(np.argmax(np.linalg.eigvalsh(stack)[:, 0]))]
        best = int(cand[pick])
        out[step] = best
        selected[best] = True
        M += np.outer(psi[best], psi[best])
    return out


# ---------------------------------------------------------------------------
# Stand-ins read by the benchmark harness's setup child and run record
# ---------------------------------------------------------------------------

NUMBA_AVAILABLE = False


def backend_name() -> str:
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


def warmup() -> None:
    """Does nothing: the kernels are plain numpy and need no compilation.

    Kept so that callers written for a compiled kernel path still run.
    """
