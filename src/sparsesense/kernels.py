"""Hot numeric kernels.

Two inner loops dominate runtime: column-pivoted Householder QR (sensor
ranking) and the greedy smallest-singular-value row scan (principled
oversampling). Both are vectorized numpy.

CPQR picks the remaining column with the largest residual norm (ties to the
lowest index) and deflates with one Householder reflection per step. The
reflections are applied in blocks, as in LAPACK's xLAQPS (Quintana-Orti,
Sun & Bischof 1998): a step updates only its pivot column and pivot row,
the residual norms are downdated from the pivot row, and the rest of the
matrix gets one matrix product per block. A block ends early when a
downdated norm has lost too much of its last exact value to cancellation;
such norms are then recomputed from the updated matrix.

The pivots are those of the unblocked loop, which applies each reflection
to the whole trailing matrix at once (the reference in
``tests/test_kernels.py``), wherever the residual norms differ by more than
roundoff; exact ties still go to the lowest index. The delayed updates round
the norms differently, so norms that tie to the last bit may resolve the
other way.

The sigma_min scan runs each greedy step in four stages:

* bound: one ``eigh`` of the current Gram matrix M turns every candidate's
  lambda_min(M + x x^T) into the root of a rank-one secular equation, in
  the variable shifted by lambda_min(M); one GEMV gives every root's upper
  bracket at the shift 0;
* seed: the row with the largest of these brackets is valued with the
  ``eigvalsh`` of an exhaustive scan, which bounds the winner's value from
  below;
* drop: one more GEMV, at a shift twice a stated tolerance below the
  seed's value, drops every row whose root lies at or below that shift;
* bracket and confirm: the rows left, the seed among them, are solved by
  root-finding from that shift, and those whose upper bracket falls below
  the best lower bracket by more than the tolerance are pruned. When more
  than one survives, the survivors are evaluated with the stacked
  ``eigvalsh`` of an exhaustive scan and the first maximum wins.

A step costs one n x r x r product, two GEMVs, the ``eigh`` of M and one
r x r ``eigvalsh``, plus root-finding on the rows left after the drop and
an ``eigvalsh`` per confirmed survivor, instead of n eigenproblems. When
every increment over lambda_min(M) is within twice the tolerance, nothing
can be dropped and all rows are solved from 0. Because the bracket error is
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
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

# Residual column norms are downdated after each reflection; once an estimate
# has lost this fraction of its last exactly-computed value, cancellation may
# dominate and the norm is recomputed from scratch.
_NORM_GUARD = 1e-10
# Reflections per block of the blocked CPQR: the trailing matrix is updated
# once per block, by one matrix product.
_BLOCK = 32


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
    deflates with a Householder reflection H = I - beta v v^T; Q is
    accumulated only when requested, to keep the placement hot path lean.

    The reflections are applied in blocks of up to ``_BLOCK`` steps, as in
    LAPACK's xLAQPS. Within a block, on the rows from the block's first step
    down, the deflated matrix is A - Vb^T F: A is that part of W at the
    block's start, Vb holds the block's reflectors v (one per row) and F the
    matching rows beta (v^T A - (Vb v)^T F). W keeps A there; a step brings
    only its pivot column and pivot row up to date, and downdates the
    residual norms from the pivot row. The rest of W gets one matrix product
    when the block ends, early if a norm fails the guard, and the norms that
    failed are then recomputed.
    """
    W = np.array(V, dtype=np.float64, order="C", copy=True)
    r, n = W.shape
    Q = np.eye(r) if want_q else None
    perm = np.arange(n)
    r_diag = np.zeros(k)
    norms2 = np.einsum("ij,ij->j", W, W)
    # Never negative, so it also catches estimates that cancelled below zero.
    floor = _NORM_GUARD * norms2

    start = 0
    while start < k:
        Vb = np.zeros((_BLOCK, r))
        F = np.zeros((_BLOCK, n))
        stale = None
        for step in range(start, min(start + _BLOCK, k)):
            i = step - start
            best = step + int(norms2[step:].argmax())
            if best != step:
                col = W[:, best].copy()
                W[:, best] = W[:, step]
                W[:, step] = col
                if i:
                    col = F[:i, best].copy()
                    F[:i, best] = F[:i, step]
                    F[:i, step] = col
                perm[step], perm[best] = perm[best], perm[step]
                norms2[step], norms2[best] = norms2[best], norms2[step]
                floor[step], floor[best] = floor[best], floor[step]

            x = W[step:, step]
            if i:
                x -= F[:i, step] @ Vb[:i, step:]
            alpha = math.sqrt(x @ x)
            r_diag[step] = alpha
            if alpha == 0.0:
                # Every remaining residual is exactly zero (one that
                # collapsed inside this block would have failed the guard
                # and ended it), so there is nothing to reflect, update or
                # downdate: the remaining pivots fall through in position
                # order with zero diagonals.
                continue

            sign = 1.0 if x[0] >= 0.0 else -1.0
            v = Vb[i, step:]
            v[:] = x
            v[0] += sign * alpha
            beta = 2.0 / (v @ v)
            x[0] = -sign * alpha
            x[1:] = 0.0
            f = v @ W[step:, step + 1 :]
            if i:
                f -= (Vb[:i, step:] @ v) @ F[:i, step + 1 :]
            np.multiply(f, beta, out=F[i, step + 1 :])
            if Q is not None:
                qb = Q[:, step:]
                qb -= np.outer(qb @ v, beta * v)

            if step + 1 < n:
                t = W[step, step + 1 :]
                t -= Vb[: i + 1, step] @ F[: i + 1, step + 1 :]
                est = norms2[step + 1 :]
                est -= t * t
                bad = est < floor[step + 1 :]
                if bad.any():
                    stale = step + 1 + np.flatnonzero(bad)
                    break

        end = step + 1
        W[end:, end:] -= Vb[: end - start, end:].T @ F[: end - start, end:]
        if stale is not None:
            fresh = np.einsum("ij,ij->j", W[end:, stale], W[end:, stale])
            norms2[stale] = fresh
            floor[stale] = _NORM_GUARD * fresh
        start = end

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


def _secular_brackets(z1sq, zsq, d, tol, start):
    """Brackets [lo, hi] on the root t of each row's secular equation.

    With M = U diag(lam) U^T, z = U^T x and d_j = lam_j - lam_1 >= 0,
    lambda_min(M + x x^T) = lam_1 + t, where t in [0, d_2] is the root of
    g(t) = t (1 + phi(t)) - z_1^2 and phi(t) = sum_{j>=2} z_j^2 / (d_j - t).
    g is increasing there and h(t) = z_1^2 / (1 + phi(t)) is decreasing with
    h(t) = t at the root, so every evaluation brackets the root from both
    sides: [h(t), t] when g(t) >= 0, [t, h(t)] otherwise. Every row's root
    must lie in [start, d_2], and the iteration starts there at t = start.
    The next iterate is the root of a rational model that keeps the pole at
    0 exact and fits phi by P / (d_2 - t) + Q through its value and slope
    (Bunch, Nielsen & Sorensen 1978), with a bisection fallback when it
    leaves the bracket. Rows are dropped from the iteration once their
    bracket is narrower than tol or tops out below the best lower bracket
    minus tol, and the loop ends when a single row can still win.
    """
    c = z1sq.size
    d2 = d[0]
    lo, hi, t = np.full(c, start), np.full(c, d2), np.full(c, start)
    best = start
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


def _sigma_min_survivors(M, rows, energy):
    """Ascending indices of the rows x that may maximize lambda_min(M + x x^T).

    ``energy`` bounds every row's ||x||^2 from above and sets, with the
    eigenvalues of M, the scale of the stated tolerance.

    Always contains the exhaustive scan's pick: a row is dropped only when
    its upper bracket lies more than the stated tolerance below another
    row's lower bracket.

    The row with the largest upper bracket h(0) is the seed. Its
    lambda_min, computed as the exhaustive scan computes it, is a lower
    bracket on the winner's, so the shift te = lambda_min - lam_1 - 2 tol
    sits more than tol below the best lower bracket. A row with g(te) >= 0
    has its root at or below te and is dropped; the rest, the seed among
    them, start their brackets at te. When te <= 0 no row can be dropped
    this way and every row starts at 0.
    """
    lam, U = np.linalg.eigh(M)
    zsq = np.square(rows @ U)
    z1sq, zsq = zsq[:, 0], zsq[:, 1:]
    d = lam[1:] - lam[0]
    tol = _PRUNE_RTOL * (np.abs(lam).max() + energy)
    if d.size == 0:
        # r = 1: the update is the scalar lam_1 + x^2.
        return np.nonzero(z1sq >= z1sq.max() - tol)[0]
    if d[0] <= 0.0:
        # A repeated lam_1 survives every rank-one update; only the exact
        # arithmetic can order the rows.
        return np.arange(rows.shape[0])
    seed = int(np.argmax(z1sq / (1.0 + zsq @ (1.0 / d))))
    x = rows[seed]
    te = float(np.linalg.eigvalsh(M + np.outer(x, x))[0] - lam[0]) - 2.0 * tol
    if te > 0.0:
        alive = te * (1.0 + zsq @ (1.0 / (d - te))) < z1sq
        # The seed's root lies 2 tol above te, far beyond rounding; keeping
        # it regardless makes the winner's lower bracket certain to be seen.
        alive[seed] = True
        idx = np.flatnonzero(alive)
        z1sq, zsq = z1sq[idx], zsq[idx]
    else:
        idx, te = np.arange(rows.shape[0]), 0.0
    lo, hi = _secular_brackets(z1sq, zsq, d, tol, te)
    return idx[hi >= lo.max() - tol]


def sigma_min_tail(psi: np.ndarray, prefix: np.ndarray, count: int) -> np.ndarray:
    """Indices of `count` greedy sigma_min-maximizing rows appended to prefix.

    Each step appends the remaining row x that maximizes lambda_min(M + x x^T),
    M being the Gram matrix of the rows chosen so far (equivalently sigma_min
    of the grown measurement matrix); ties go to the lowest row index. A step
    values one seed row exactly, drops with one GEMV every candidate whose
    lambda_min the seed's beats by more than a stated tolerance, and
    brackets the rest through the secular equation of the rank-one update
    until only the candidates that may win are left. A lone survivor is the
    pick; several are confirmed with a stacked ``eigvalsh`` of M + x x^T,
    the arithmetic of an exhaustive scan. The picks are therefore the
    exhaustive scan's picks, and the greedy is prefix-consistent: the first
    j of `count` picks are the picks for count = j.

    Raises ValueError unless 0 <= count <= the number of rows outside
    prefix.
    """
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    n = psi.shape[0]
    selected = np.zeros(n, dtype=np.bool_)
    selected[prefix] = True
    free = n - int(np.count_nonzero(selected))
    if not 0 <= count <= free:
        raise ValueError(
            f"count must be between 0 and {free} (the rows outside prefix), got {count}"
        )
    base = psi[prefix]
    M = np.ascontiguousarray(base.T @ base)
    # The tolerance's row term: the largest ||x||^2 over all rows. U is
    # orthogonal, so it bounds every candidate's ||U^T x||^2 up to roundoff
    # far below the tolerance, and is taken once instead of every step.
    energy = float(np.einsum("ij,ij->i", psi, psi).max())
    out = np.empty(count, dtype=np.int64)
    for step in range(count):
        cand = np.nonzero(~selected)[0]
        rows = psi[cand]
        keep = _sigma_min_survivors(M, rows, energy)
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
