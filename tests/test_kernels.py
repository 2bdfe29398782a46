"""Kernel contracts: the secular-equation sigma_min scan picks exactly the
rows of an exhaustive stacked-eigvalsh scan, the backend stand-ins report
the numpy path, and the BLAS thread pin nests and restores."""

import sys
import threading

import numpy as np
import pytest

from sparsesense import kernels


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
    prefix = rng.permutation(n)[: int(rng.integers(0, r + 2))]
    if kind == "full-count":
        count = n - prefix.size
    else:
        count = int(rng.integers(1, min(3 * r + 2, n - prefix.size) + 1))
    return psi, prefix, count


@pytest.mark.parametrize(
    "kind",
    ["random", "rank-deficient", "duplicate-rows", "graded", "r-one", "zero", "full-count"],
)
@pytest.mark.parametrize("seed", range(6))
def test_sigma_min_tail_matches_exhaustive_scan(kind, seed):
    psi, prefix, count = _hard_case(kind, seed)
    got = kernels.sigma_min_tail(psi, prefix, count)
    np.testing.assert_array_equal(got, _exhaustive_tail(psi, prefix, count))


def test_sigma_min_tail_matches_exhaustive_scan_on_orthonormal_modes():
    # The sweep's shape: leading left singular vectors, CPQR prefix, p = 2r.
    rng = np.random.default_rng(17)
    X = rng.standard_normal((400, 60)) * np.logspace(0, -3, 60)
    psi = np.linalg.svd(X, full_matrices=False)[0][:, :12]
    prefix = kernels.cpqr_select(psi.T, 12)[0][:12]
    got = kernels.sigma_min_tail(psi, prefix, 24)
    np.testing.assert_array_equal(got, _exhaustive_tail(psi, prefix, 24))


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
