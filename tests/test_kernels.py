"""Kernel contracts: the njit and numpy CPQR twins select identical pivots,
and the secular-equation sigma_min scan picks exactly the rows of an
exhaustive stacked-eigvalsh scan."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sparsesense import kernels

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


needs_numba = pytest.mark.skipif(
    not kernels.NUMBA_AVAILABLE, reason="numba not installed"
)


def _both_cpqr(V, k, want_q=False):
    W1 = np.array(V, dtype=np.float64, order="C")
    W2 = W1.copy()
    r = W1.shape[0]
    Q1 = np.eye(r) if want_q else np.eye(1)
    Q2 = Q1.copy()
    perm_nb, diag_nb = kernels._cpqr_numba(W1, k, Q1, want_q)
    perm_np, diag_np = kernels._cpqr_numpy(W2, k, Q2, want_q)
    return (perm_nb, diag_nb, W1, Q1), (perm_np, diag_np, W2, Q2)


@needs_numba
@pytest.mark.parametrize("seed", range(8))
def test_cpqr_paths_agree_on_random_input(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 16))
    n = int(rng.integers(r, 40))
    V = rng.standard_normal((r, n))
    k = int(rng.integers(1, r + 1))
    (perm_nb, diag_nb, W_nb, _), (perm_np, diag_np, W_np, _) = _both_cpqr(V, k)
    np.testing.assert_array_equal(perm_nb, perm_np)
    np.testing.assert_allclose(diag_nb, diag_np, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(W_nb, W_np, rtol=1e-10, atol=1e-12)


@needs_numba
def test_cpqr_paths_agree_on_exact_ties():
    (perm_nb, _, _, _), (perm_np, _, _, _) = _both_cpqr(np.eye(5), 5)
    assert perm_nb.tolist() == perm_np.tolist() == [0, 1, 2, 3, 4]


@needs_numba
def test_cpqr_paths_agree_with_q():
    rng = np.random.default_rng(404)
    V = rng.standard_normal((6, 12))
    (_, _, _, Q_nb), (_, _, _, Q_np) = _both_cpqr(V, 6, want_q=True)
    np.testing.assert_allclose(Q_nb, Q_np, rtol=1e-10, atol=1e-12)


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
    assert kernels.backend_name() in ("numba", "numpy")
    assert kernels.using_numba() == (kernels.backend_name() == "numba")


def test_warmup_is_idempotent():
    kernels.warmup()
    kernels.warmup()


def test_bench_kernels_script_runs(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--repeats", "1"])
    out = capsys.readouterr().out
    assert "column-pivoted QR" in out
    assert "sigma_min" in out
