"""Hot numeric kernels.

Two inner loops dominate runtime: column-pivoted Householder QR (sensor
ranking) and the greedy smallest-singular-value row scan (principled
oversampling).

CPQR has a numba ``@njit`` version and a vectorized pure-numpy fallback. The
active path is fixed at import time from the ``SPARSESENSE_BACKEND``
environment variable:

* ``auto`` (default): numba when importable, numpy otherwise
* ``numba``: require numba, fail loudly if missing
* ``numpy``: force the fallback

Both CPQR paths use the same pivot rule (largest residual norm, ties broken
by the lowest index) and the same norm-downdating scheme, so they select
identical pivots except in pathological near-tie cases at machine precision.

The sigma_min scan is numpy only. Each greedy step runs in three phases:

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
``benchmarks/bench_kernels.py`` times both kernels.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        return wrap


_BACKEND = os.environ.get("SPARSESENSE_BACKEND", "auto").strip().lower()
if _BACKEND not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"SPARSESENSE_BACKEND must be 'auto', 'numba' or 'numpy', got {_BACKEND!r}"
    )
if _BACKEND == "numba" and not NUMBA_AVAILABLE:
    raise RuntimeError("SPARSESENSE_BACKEND=numba but numba is not importable")

# Residual column norms are downdated after each reflection; once an estimate
# has lost this fraction of its last exactly-computed value, cancellation may
# dominate and the norm is recomputed from scratch.
_NORM_GUARD = 1e-10


def using_numba() -> bool:
    """True when the njit kernel path is active."""
    return NUMBA_AVAILABLE and _BACKEND != "numpy"


def backend_name() -> str:
    return "numba" if using_numba() else "numpy"


# ---------------------------------------------------------------------------
# Column-pivoted Householder QR
# ---------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _cpqr_numba(W, k, Q, accumulate_q):
    """In-place Householder CPQR on W (r x n); returns (perm, r_diag).

    Each step picks the remaining column with the largest residual norm
    (strict > scan, so exact ties go to the lowest index), swaps it into
    place and deflates with a Householder reflection. Q is accumulated only
    when requested to keep the placement hot path lean.
    """
    r, n = W.shape
    perm = np.arange(n)
    r_diag = np.zeros(k)
    # W is C-ordered, so all hot sweeps run row-contiguously over j.
    norms2 = np.zeros(n)
    for i in range(r):
        for j in range(n):
            norms2[j] += W[i, j] * W[i, j]
    orig2 = norms2.copy()
    v = np.zeros(r)
    dots = np.zeros(n)

    for step in range(k):
        best = step
        bestv = norms2[step]
        for j in range(step + 1, n):
            if norms2[j] > bestv:
                best = j
                bestv = norms2[j]
        if best != step:
            for i in range(r):
                t = W[i, step]
                W[i, step] = W[i, best]
                W[i, best] = t
            perm[step], perm[best] = perm[best], perm[step]
            norms2[step], norms2[best] = norms2[best], norms2[step]
            orig2[step], orig2[best] = orig2[best], orig2[step]

        alpha2 = 0.0
        for i in range(step, r):
            alpha2 += W[i, step] * W[i, step]
        alpha = np.sqrt(alpha2)
        r_diag[step] = alpha
        if alpha == 0.0:
            # Residual block is numerically zero; remaining pivots fall
            # through in lowest-index order with zero diagonals.
            continue

        sign = 1.0 if W[step, step] >= 0.0 else -1.0
        v[step] = W[step, step] + sign * alpha
        for i in range(step + 1, r):
            v[i] = W[i, step]
        vnorm2 = 0.0
        for i in range(step, r):
            vnorm2 += v[i] * v[i]
        beta = 2.0 / vnorm2

        W[step, step] = -sign * alpha
        for i in range(step + 1, r):
            W[i, step] = 0.0
        for j in range(step + 1, n):
            dots[j] = 0.0
        for i in range(step, r):
            vi = v[i]
            for j in range(step + 1, n):
                dots[j] += vi * W[i, j]
        for i in range(step, r):
            c = beta * v[i]
            for j in range(step + 1, n):
                W[i, j] -= c * dots[j]

        if accumulate_q:
            for i in range(r):
                dot = 0.0
                for jj in range(step, r):
                    dot += Q[i, jj] * v[jj]
                c = beta * dot
                for jj in range(step, r):
                    Q[i, jj] -= c * v[jj]

        for j in range(step + 1, n):
            t = W[step, j]
            est = norms2[j] - t * t
            if est < _NORM_GUARD * orig2[j] or est < 0.0:
                s = 0.0
                for i in range(step + 1, r):
                    s += W[i, j] * W[i, j]
                est = s
                orig2[j] = s
            norms2[j] = est

    return perm, r_diag


def _cpqr_numpy(W, k, Q, accumulate_q):
    """Vectorized twin of :func:`_cpqr_numba`; same pivot and downdate rules."""
    r, n = W.shape
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

        if accumulate_q:
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

    return perm, r_diag


def cpqr_select(V: np.ndarray, k: int, want_q: bool = False):
    """Run k steps of CPQR on a copy of V.

    Returns ``(perm, r_diag, R, Q)`` where ``perm`` is the full column
    permutation (its first k entries are the pivots in selection order),
    ``r_diag`` the |R_ii| magnitudes, ``R`` the transformed matrix (upper
    triangular in its first k columns) and ``Q`` the accumulated orthogonal
    factor, or None unless ``want_q``. The input is never mutated.
    """
    W = np.array(V, dtype=np.float64, order="C", copy=True)
    r = W.shape[0]
    Q = np.eye(r) if want_q else np.eye(1)
    if using_numba():
        perm, r_diag = _cpqr_numba(W, k, Q, want_q)
    else:
        perm, r_diag = _cpqr_numpy(W, k, Q, want_q)
    return perm, r_diag, W, (Q if want_q else None)


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


def warmup() -> None:
    """Force JIT compilation of the njit CPQR kernel (no-op on the numpy path).

    Call before timing anything that goes through the kernels, so compile
    time is not attributed to the first measured run.
    """
    if not using_numba():
        return
    w = np.eye(3)
    _cpqr_numba(w.copy(), 2, np.eye(3), True)
    _cpqr_numba(w.copy(), 2, np.eye(1), False)
