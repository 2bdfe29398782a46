"""Kernel contracts: the blocked CPQR picks the pivots of the rank-one
Householder loop it replaced, the secular-equation sigma_min scan picks
exactly the rows of an exhaustive stacked-eigvalsh scan, the backend
stand-ins report the numpy path, and the BLAS thread pin nests and
restores."""

import sys
import threading

import numpy as np
import pytest

from sparsesense import kernels
from sparsesense.basis import randomized_basis
from sparsesense.dataset import SpectrumSpec, synthesize

# ---------------------------------------------------------------------------
# CPQR: the blocked kernel against the rank-one reference
# ---------------------------------------------------------------------------

NB = kernels._BLOCK


def _rank_one_cpqr(V, k, stale_steps=None):
    """Reference CPQR: one Householder reflection per step, applied at once
    to the whole trailing matrix as a rank-one update, with the residual
    norms downdated from the updated pivot row under the same guard.
    Appends to ``stale_steps`` every step at which the guard fires."""
    W = np.array(V, dtype=np.float64, order="C", copy=True)
    n = W.shape[1]
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

        if step + 1 < n:
            t = W[step, step + 1 :]
            est = norms2[step + 1 :] - t * t
            stale = (est < kernels._NORM_GUARD * orig2[step + 1 :]) | (est < 0.0)
            if np.any(stale):
                if stale_steps is not None:
                    stale_steps.append(step)
                cols = step + 1 + np.nonzero(stale)[0]
                fresh = np.einsum("ij,ij->j", W[step + 1 :, cols], W[step + 1 :, cols])
                est[np.nonzero(stale)[0]] = fresh
                orig2[cols] = fresh
            norms2[step + 1 :] = est

    return perm, r_diag, W


def _assert_matches_reference(V, k):
    """Same pivots as the rank-one reference, and r_diag and R to 1e-12;
    V itself is left as it was."""
    before = V.copy()
    perm, r_diag, R = kernels.cpqr_select(V, k)
    np.testing.assert_array_equal(V, before)
    ref_perm, ref_diag, ref_R = _rank_one_cpqr(V, k)
    np.testing.assert_array_equal(perm, ref_perm)
    np.testing.assert_allclose(r_diag, ref_diag, rtol=1e-12, atol=0.0)
    assert np.abs(R - ref_R).max() <= 1e-12 * np.abs(ref_R).max()
    return perm, r_diag, R


def _near_duplicate_case(seed):
    """(V, k): a random matrix with some columns replaced by perturbed
    copies of others, at a relative distance between 1e-14 and 1e-8."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(3, 40))
    n = int(rng.integers(r, 120))
    V = rng.standard_normal((r, n))
    twins = int(rng.integers(1, n // 2 + 1))
    src, dst = rng.integers(0, n, twins), rng.integers(0, n, twins)
    eps = 10.0 ** rng.uniform(-14, -8)
    V[:, dst] = V[:, src] + eps * rng.standard_normal((r, twins))
    return V, int(rng.integers(1, r + 1))


@pytest.mark.parametrize("seed", range(3))
def test_cpqr_matches_the_rank_one_reference(seed):
    # Bases of the benchmark's shape: 1024 x 600 data, its SVD modes and
    # randomized ranges; then 50 near-duplicate-column matrices per seed.
    X = synthesize(SpectrumSpec(1.21e5, -1.1, 512), 1024, 600, seed).X
    U = np.linalg.svd(X, full_matrices=False)[0]
    for r in (10, 40, 101, 150, 200):
        _assert_matches_reference(np.ascontiguousarray(U[:, :r].T), r)
    for r in (10, 20, 40):
        _assert_matches_reference(randomized_basis(X, r, seed).psi.T, r)
    for case in range(50 * seed, 50 * seed + 50):
        _assert_matches_reference(*_near_duplicate_case(case))


@pytest.mark.parametrize("k", [NB - 1, NB, NB + 1, 2 * NB + 3])
def test_cpqr_block_boundaries(k):
    V = np.random.default_rng(k).standard_normal((2 * NB + 10, 150))
    _assert_matches_reference(V, k)


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12, 1e-14])
def test_cpqr_recomputes_stale_norms_inside_a_block(eps):
    # Column j + 1 is a perturbed copy of column j, for j = 5 and j = 40,
    # and the column norms fall off fast enough that each pair is pivoted
    # mid-block, in the first and the second block. Once one of a pair is
    # the pivot, the other's residual norm collapses to about eps, its
    # downdated estimate fails the guard and the block ends early.
    rng = np.random.default_rng(3)
    r, n = 2 * NB + 10, 90
    V = rng.standard_normal((r, n)) * 0.9 ** np.arange(n)
    for j in (5, 40):
        V[:, j + 1] = V[:, j] + eps * rng.standard_normal(r)
    stale_steps = []
    _rank_one_cpqr(V, r, stale_steps=stale_steps)
    # (The guard fires for every column at the last step, where the
    # residuals run out of rows.)
    inside = [s for s in stale_steps[:-1] if s % NB not in (0, NB - 1)]
    assert {s // NB for s in inside} == {0, 1}
    perm = _assert_matches_reference(V, r)[0]
    # One column of each pair is a pivot; the other, left at a residual of
    # order eps, is not.
    pivots = set(perm[:r].tolist())
    assert len({5, 6} & pivots) == len({40, 41} & pivots) == 1


def test_cpqr_zero_residual_inside_a_block():
    # Columns live in the first 5 rows, so after 5 steps every residual is
    # exactly zero: the remaining steps, across the block boundary, take the
    # alpha == 0 path and swap nothing, taking the columns in the order the
    # first 5 steps left them.
    rng = np.random.default_rng(8)
    r, n, rank = 2 * NB, 80, 5
    V = np.zeros((r, n))
    V[:rank] = rng.standard_normal((rank, n))
    perm, r_diag, _ = _assert_matches_reference(V, r)
    assert np.all(r_diag[:rank] > 0.0)
    assert not np.any(r_diag[rank:])
    np.testing.assert_array_equal(perm, kernels.cpqr_select(V, rank)[0])


def test_cpqr_exact_zero_residuals_give_an_exact_r():
    # Columns 1 and 2 are half of column 0, in numbers for which the first
    # reflection is exact: after it both residuals are exactly zero, their
    # norms fail the guard, and the 4s in row 1 are eliminated by the block's
    # trailing update before step 1 takes the alpha == 0 path.
    V = np.array([[6.0, 3.0, 3.0], [8.0, 4.0, 4.0], [0.0, 0.0, 0.0]])
    perm, r_diag, R = _assert_matches_reference(V, 3)
    assert perm.tolist() == [0, 1, 2]
    assert r_diag.tolist() == [10.0, 0.0, 0.0]
    np.testing.assert_array_equal(R, [[-10.0, -5.0, -5.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Greedy sigma_min oversampling scan
# ---------------------------------------------------------------------------


def _exhaustive_tail(psi, prefix, count):
    """Reference greedy: eigvalsh of M + x x^T for every remaining row."""
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    selected = np.zeros(psi.shape[0], dtype=np.bool_)
    selected[prefix] = True
    base = psi[prefix]
    M = np.ascontiguousarray(base.T @ base)
    out = np.empty(count, dtype=np.int64)
    for t in range(count):
        cand = np.nonzero(~selected)[0]
        rows = psi[cand]
        stack = M[None, :, :] + rows[:, :, None] * rows[:, None, :]
        lam = np.linalg.eigvalsh(stack)[:, 0]
        best = int(cand[int(np.argmax(lam))])
        out[t] = best
        selected[best] = True
        M += np.outer(psi[best], psi[best])
    return out


def _hard_case(kind, seed):
    """(psi, prefix, count) of one seeded nasty input."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 90))
    r = 1 if kind == "r-one" else int(rng.integers(2, 12))
    psi = rng.standard_normal((n, r))
    if kind == "rank-deficient":
        psi[:, -1] = psi[:, 0]
    elif kind == "duplicate-rows":
        k = n // 3
        psi[k : 2 * k] = psi[:k]
    elif kind == "graded":
        psi *= np.logspace(0, -12, r)
    elif kind == "zero":
        psi[:] = 0.0
    elif kind == "near-tie":
        # Every row has a twin 1e-13 away, so each winner ties with its twin
        # far inside the pruning tolerance.
        half = n // 2
        psi[half : 2 * half] = psi[:half] * (1.0 + 1e-13 * rng.standard_normal((half, r)))
    elif kind == "flat-direction":
        # One direction 1e-7 weak: once M is well posed in the others, no row
        # can raise lambda_min by more than about 1e-14, far below the
        # pruning tolerance.
        psi[:, -1] *= 1e-7
    prefix = rng.permutation(n)[: int(rng.integers(0, r + 2))]
    if kind == "full-count":
        count = n - prefix.size
    else:
        count = int(rng.integers(1, min(3 * r + 2, n - prefix.size) + 1))
    return psi, prefix, count


@pytest.mark.parametrize(
    "kind",
    [
        "random", "rank-deficient", "duplicate-rows", "graded", "r-one", "zero",
        "full-count", "near-tie", "flat-direction",
    ],
)
@pytest.mark.parametrize("seed", range(6))
def test_sigma_min_tail_matches_exhaustive_scan(kind, seed):
    psi, prefix, count = _hard_case(kind, seed)
    got = kernels.sigma_min_tail(psi, prefix, count)
    np.testing.assert_array_equal(got, _exhaustive_tail(psi, prefix, count))


def _record_scan(monkeypatch):
    """Events of the sigma_min scan, in order: ("brackets", rows, start) for
    each secular iteration and ("confirm", rows) for each stacked eigvalsh."""
    events = []
    brackets, eigvalsh = kernels._secular_brackets, np.linalg.eigvalsh

    def spy_brackets(z1sq, zsq, d, tol, start):
        events.append(("brackets", z1sq.size, start))
        return brackets(z1sq, zsq, d, tol, start)

    def spy_eigvalsh(a):
        if a.ndim == 3:
            events.append(("confirm", a.shape[0]))
        return eigvalsh(a)

    monkeypatch.setattr(kernels, "_secular_brackets", spy_brackets)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    return events


@pytest.mark.parametrize("seed", range(6))
def test_sigma_min_tail_near_ties_reach_the_confirmation(monkeypatch, seed):
    # Rows pass the single-shift drop together, start their brackets above
    # 0 and still tie, so several go on to the stacked eigvalsh.
    psi, prefix, count = _hard_case("near-tie", seed)
    events = _record_scan(monkeypatch)
    kernels.sigma_min_tail(psi, prefix, count)
    assert any(
        prev[0] == "brackets" and prev[2] > 0.0 and event[0] == "confirm" and event[1] > 1
        for prev, event in zip(events, events[1:])
    )


@pytest.mark.parametrize("seed", range(6))
def test_sigma_min_tail_tiny_increments_start_at_zero(monkeypatch, seed):
    # Every increment over lambda_1 is below twice the tolerance, so no row
    # can be dropped at the seed's shift and every row starts at t = 0.
    psi, prefix, count = _hard_case("flat-direction", seed)
    events = _record_scan(monkeypatch)
    kernels.sigma_min_tail(psi, prefix, count)
    # The last step, at the latest, brackets all its candidates from 0.
    left = psi.shape[0] - np.unique(prefix).size - (count - 1)
    assert ("brackets", left, 0.0) in events


@pytest.fixture(scope="module")
def benchmark_modes():
    """Left singular vectors of the benchmark's 1024 x 600 synthetic data."""
    X = synthesize(SpectrumSpec(1.21e5, -1.1, 512), 1024, 600, 0).X
    return np.linalg.svd(X, full_matrices=False)[0]


@pytest.mark.parametrize("r", [10, 20, 40])
def test_sigma_min_tail_matches_exhaustive_scan_at_the_benchmark_cells(benchmark_modes, r):
    # The sweep-odeim cells: SVD modes of 1024-row synthetic data, a CPQR
    # prefix and the tail up to p = 80.
    psi = np.ascontiguousarray(benchmark_modes[:, :r])
    prefix = kernels.cpqr_select(psi.T, r)[0][:r]
    got = kernels.sigma_min_tail(psi, prefix, 80 - r)
    np.testing.assert_array_equal(got, _exhaustive_tail(psi, prefix, 80 - r))


@pytest.mark.parametrize("count", [-1, 8])
def test_sigma_min_tail_rejects_counts_outside_the_free_rows(count):
    psi = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError, match=r"between 0 and 7 .* got " + str(count)):
        kernels.sigma_min_tail(psi, np.array([0, 1, 2]), count)


def test_sigma_min_tail_matches_exhaustive_scan_on_orthonormal_modes(monkeypatch):
    # The sweep's shape: leading left singular vectors, CPQR prefix, p = 2r.
    rng = np.random.default_rng(17)
    X = rng.standard_normal((400, 60)) * np.logspace(0, -3, 60)
    psi = np.linalg.svd(X, full_matrices=False)[0][:, :12]
    prefix = kernels.cpqr_select(psi.T, 12)[0][:12]
    events = _record_scan(monkeypatch)
    got = kernels.sigma_min_tail(psi, prefix, 24)
    np.testing.assert_array_equal(got, _exhaustive_tail(psi, prefix, 24))
    # Every step drops rows at the seed's shift and brackets only a few of
    # its 370-odd candidates, from that shift.
    brackets = [e for e in events if e[0] == "brackets"]
    assert len(brackets) == 24
    assert all(rows < 100 and start > 0.0 for _, rows, start in brackets)


def test_sigma_min_tail_is_prefix_consistent():
    rng = np.random.default_rng(23)
    psi = rng.standard_normal((70, 6))
    prefix = np.arange(6)
    full = kernels.sigma_min_tail(psi, prefix, 30)
    for j in (1, 7, 29):
        np.testing.assert_array_equal(kernels.sigma_min_tail(psi, prefix, j), full[:j])


def test_sigma_min_tail_low_index_tie_break():
    # Duplicate rows give exact ties; the lower index must win.
    psi = np.array([[2.0], [1.0], [1.0], [1.0]])
    out = kernels.sigma_min_tail(psi, np.array([0]), 2)
    assert out.tolist() == [1, 2]


def test_backend_reporting():
    assert kernels.backend_name() == "numpy"
    assert kernels.NUMBA_AVAILABLE is False


def test_warmup_is_idempotent():
    kernels.warmup()
    kernels.warmup()


# ---------------------------------------------------------------------------
# BLAS thread pin
# ---------------------------------------------------------------------------


def test_single_blas_thread_pins_nests_and_restores(blas_preset):
    get, _ = kernels._blas_control()
    blas_preset(2)
    before = get()
    with kernels.single_blas_thread():
        assert get() == 1
        with kernels.single_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == before


def test_single_blas_thread_holds_across_threads(blas_preset):
    get, _ = kernels._blas_control()
    blas_preset(2)
    before = get()
    seen = []

    def enter_often():
        for _ in range(200):
            with kernels.single_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # Entries and exits interleave, so the first entry and the last exit
        # move between threads.
        workers = [threading.Thread(target=enter_often) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 1600
    assert get() == before


def test_single_blas_thread_restores_after_an_error(blas_preset):
    get, _ = kernels._blas_control()
    blas_preset(2)
    before = get()
    with pytest.raises(RuntimeError):
        with kernels.single_blas_thread():
            raise RuntimeError("boom")
    assert get() == before


def test_single_blas_thread_is_a_noop_without_a_known_blas(monkeypatch, blas_preset):
    get, _ = kernels._blas_control()
    blas_preset(2)
    before = get()
    monkeypatch.setattr(kernels, "_blas_control", lambda: None)
    with kernels.single_blas_thread():
        assert get() == before
    assert kernels.blas_record()["blas-threads"] == "unmanaged"


def test_blas_discovery_fails_softly(tmp_path):
    not_a_library = tmp_path / "libopenblas.so"
    not_a_library.write_bytes(b"not a shared object")
    assert kernels._load_blas_control([]) is None
    assert kernels._load_blas_control([str(not_a_library)]) is None


def test_blas_record_reports_the_pin():
    record = kernels.blas_record()
    assert record["blas"]
    managed = kernels._blas_control() is not None
    assert record["blas-threads"] == ("1" if managed else "unmanaged")
