"""Core linear algebra contracts: CPQR, least squares, random factories."""

import numpy as np
import pytest
import scipy.linalg

from sparsesense.linalg import (
    PivotResult,
    condition_number,
    cpqr,
    cpqr_factors,
    gaussian_matrix,
    lstsq_minnorm,
    random_orthonormal_columns,
)


# ---------------------------------------------------------------------------
# cpqr
# ---------------------------------------------------------------------------


def test_cpqr_orthogonal_columns_sorted_by_norm():
    result = cpqr(np.diag([1.0, 2.0, 3.0]), 3)
    assert result.pivots.tolist() == [2, 1, 0]
    np.testing.assert_allclose(result.r_diag, [3.0, 2.0, 1.0])


def test_cpqr_identity_breaks_ties_by_lowest_index():
    result = cpqr(np.eye(4), 4)
    assert result.pivots.tolist() == [0, 1, 2, 3]


def test_cpqr_rdiag_product_matches_determinant_oracle():
    rng = np.random.default_rng(1234)
    V = rng.standard_normal((10, 30))
    result = cpqr(V, 10)
    volume = float(np.prod(result.r_diag))
    oracle = abs(np.linalg.det(V[:, result.pivots]))
    assert volume == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_cpqr_matches_lapack_pivot_order(seed):
    # Independent oracle: LAPACK dgeqp3 uses the same greedy norm pivoting.
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((7, 15))
    result = cpqr(V, 7)
    _, _, lapack_perm = scipy.linalg.qr(V, pivoting=True)
    assert result.pivots.tolist() == lapack_perm[:7].tolist()


@pytest.mark.parametrize("shape", [(5, 12), (12, 5), (20, 60), (9, 9)])
def test_cpqr_factors_reconstruct(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    V = rng.standard_normal(shape)
    result, Q, R = cpqr_factors(V)
    err = np.linalg.norm(V[:, result.permutation] - Q @ R) / np.linalg.norm(V)
    assert err <= 1e-10
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[0]), atol=1e-12)
    k = result.k
    assert np.allclose(np.tril(R[:, :k], -1), 0.0)


def test_cpqr_diagonal_dominance():
    rng = np.random.default_rng(77)
    V = rng.standard_normal((8, 20))
    result, _, R = cpqr_factors(V)
    k = result.k
    for i in range(k):
        lhs = R[i, i] ** 2
        for col in range(i, k):
            rhs = float(np.sum(R[i : col + 1, col] ** 2))
            assert lhs >= rhs - 1e-9 * max(rhs, 1.0)


def test_cpqr_input_not_mutated():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((6, 9))
    before = V.copy()
    cpqr(V, 6)
    np.testing.assert_array_equal(V, before)


def test_cpqr_partial_selection_is_prefix_of_full():
    rng = np.random.default_rng(8)
    V = rng.standard_normal((10, 25))
    full = cpqr(V, 10)
    part = cpqr(V, 4)
    assert part.pivots.tolist() == full.pivots[:4].tolist()


def test_cpqr_greedy_volume_beats_random_selections():
    # Greedy dominates uniformly random column subsets in distribution.
    rng = np.random.default_rng(2024)
    wins_required = 0.95
    for _ in range(3):
        V = rng.standard_normal((5, 12))
        greedy = float(np.prod(cpqr(V, 5).r_diag))
        random_dets = []
        for _ in range(200):
            cols = rng.choice(12, size=5, replace=False)
            random_dets.append(abs(np.linalg.det(V[:, cols])))
        frac = np.mean([greedy >= d for d in random_dets])
        assert frac >= wins_required


def test_cpqr_argument_errors():
    with pytest.raises(ValueError):
        cpqr(np.eye(3), 4)
    with pytest.raises(ValueError):
        cpqr(np.eye(3), 0)
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        cpqr(bad, 2)


def test_pivot_result_validates_invariants():
    with pytest.raises(ValueError):
        PivotResult(
            pivots=np.array([0, 0]),
            r_diag=np.array([1.0, 1.0]),
            permutation=np.array([0, 0, 1]),
        )
    with pytest.raises(ValueError):
        PivotResult(
            pivots=np.array([1, 0]),
            r_diag=np.array([1.0, 2.0]),  # increasing
            permutation=np.array([1, 0, 2]),
        )
    with pytest.raises(ValueError):
        PivotResult(
            pivots=np.array([1, 0]),
            r_diag=np.array([2.0, 1.0]),
            permutation=np.array([0, 1, 2]),  # prefix mismatch
        )


# ---------------------------------------------------------------------------
# cpqr property suite: nasty inputs, checked against the contract
# ---------------------------------------------------------------------------


def _kahan(n, theta=1.2, perturb=0.0, seed=0):
    """Kahan's matrix diag(s^i) (I - c * strict upper ones): every column has
    unit norm in exact arithmetic, so each pivot is a near-tie."""
    s, c = np.sin(theta), np.cos(theta)
    K = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return K + perturb * np.random.default_rng(seed).standard_normal((n, n))


def _rank_deficient(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def _near_duplicates(rows, cols, seed, eps):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((rows, cols))
    twins = rng.choice(cols, size=cols // 2, replace=False)
    V[:, twins[1::2]] = V[:, twins[::2]] + eps * rng.standard_normal((rows, twins.size // 2))
    return V


_NASTY = {
    **{
        f"rank{q}-of-{r}x{n}-seed{seed}": _rank_deficient(r, n, q, seed)
        for r, n, q in [(8, 30, 3), (12, 12, 5), (30, 8, 2), (10, 40, 1)]
        for seed in range(3)
    },
    **{
        f"near-dup-{eps:g}-seed{seed}": _near_duplicates(9, 24, seed, eps)
        for eps in (1e-6, 1e-10, 1e-14)
        for seed in range(3)
    },
    **{f"kahan-{n}": _kahan(n) for n in (5, 12, 30)},
    **{f"kahan-{n}-perturbed": _kahan(n, perturb=1e-13, seed=n) for n in (12, 30)},
    "identity": np.eye(7),
    "repeated-identity": np.hstack([np.eye(5), np.eye(5)]),
    "zeros-wide": np.zeros((4, 9)),
    "zeros-tall": np.zeros((9, 4)),
    "wide": np.random.default_rng(11).standard_normal((6, 40)),
    "tall": np.random.default_rng(12).standard_normal((40, 6)),
}


def _assert_cpqr_contract(V, k):
    result, Q, R = cpqr_factors(V, k)
    piv, diag = result.pivots, result.r_diag
    assert np.linalg.norm(V[:, result.permutation] - Q @ R) <= 1e-10 * np.linalg.norm(V)
    assert len(set(piv.tolist())) == k
    assert np.all(diag[1:] <= diag[:-1])
    assert sorted(result.permutation.tolist()) == list(range(V.shape[1]))
    # Selection alone, run again, picks the same pivots with the same bits.
    again = cpqr(V, k)
    assert again.pivots.tolist() == piv.tolist()
    assert again.r_diag.tobytes() == diag.tobytes()
    return result


@pytest.mark.parametrize("name", sorted(_NASTY))
def test_cpqr_contract_on_nasty_inputs(name):
    V = _NASTY[name]
    k = min(V.shape)
    full = _assert_cpqr_contract(V, k).pivots.tolist()
    # Partial runs keep the contract and select a prefix of the full run.
    for j in sorted({1, k // 2, k - 1} - {0}):
        assert _assert_cpqr_contract(V, j).pivots.tolist() == full[:j]


@pytest.mark.parametrize("r,n,q", [(8, 30, 3), (12, 12, 5), (30, 8, 2)])
def test_cpqr_past_the_rank_leaves_only_roundoff(r, n, q):
    V = _rank_deficient(r, n, q, seed=4)
    diag = cpqr(V, min(r, n)).r_diag
    assert np.all(diag[:q] > 1e-8 * diag[0])
    assert np.all(diag[q:] <= 1e-12 * diag[0])


def test_cpqr_exact_ties_go_to_the_lowest_index():
    assert cpqr(np.eye(7), 7).pivots.tolist() == list(range(7))
    # Each unit column is repeated; the repeat deflates to zero.
    assert cpqr(np.hstack([np.eye(5), np.eye(5)]), 5).pivots.tolist() == list(range(5))
    # Norms 1, 2, 2, 2, 1: ties at 2 go to column 1, its repeat (column 2)
    # deflates to zero, and the tie at 1 goes to column 0.
    e = np.eye(3)
    V = np.column_stack([e[0], 2 * e[1], 2 * e[1], 2 * e[2], e[0]])
    assert cpqr(V, 3).pivots.tolist() == [1, 3, 0]
    # All columns zero: every step is a tie, taken in index order.
    for shape in [(4, 9), (9, 4)]:
        result = cpqr(np.zeros(shape), min(shape))
        assert result.pivots.tolist() == list(range(min(shape)))
        assert not np.any(result.r_diag)


@pytest.mark.parametrize("rows,cols,seed", [(6, 6, 0), (6, 15, 1), (15, 6, 2)])
def test_cpqr_pins_pivots_of_well_separated_orthogonal_columns(rows, cols, seed):
    # Orthogonal columns with norms a factor of two apart, at random
    # positions among zero columns: the pivots are the columns by norm.
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    Q = random_orthonormal_columns(rows, k, seed)
    where = rng.choice(cols, size=k, replace=False)
    scales = 2.0 ** rng.permutation(k)
    V = np.zeros((rows, cols))
    V[:, where] = Q * scales
    want = where[np.argsort(-scales)].tolist()
    assert _assert_cpqr_contract(V, k).pivots.tolist() == want


# ---------------------------------------------------------------------------
# lstsq_minnorm / condition_number
# ---------------------------------------------------------------------------


def test_lstsq_identity():
    Y = np.arange(6.0).reshape(3, 2)
    np.testing.assert_allclose(lstsq_minnorm(np.eye(3), Y), Y)


def test_lstsq_overdetermined_mean():
    theta = np.array([[1.0], [1.0]])
    Y = np.array([[1.0], [3.0]])
    np.testing.assert_allclose(lstsq_minnorm(theta, Y), [[2.0]])


def test_lstsq_underdetermined_minimum_norm():
    theta = np.array([[1.0, 0.0, 0.0]])
    Y = np.array([[2.0]])
    np.testing.assert_allclose(lstsq_minnorm(theta, Y), [[2.0], [0.0], [0.0]])


def test_lstsq_zero_matrix_returns_zero():
    out = lstsq_minnorm(np.zeros((3, 2)), np.ones((3, 4)))
    np.testing.assert_array_equal(out, np.zeros((2, 4)))


def test_lstsq_square_agrees_with_direct_solve():
    rng = np.random.default_rng(17)
    theta = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    Y = rng.standard_normal((6, 3))
    direct = np.linalg.solve(theta, Y)
    ours = lstsq_minnorm(theta, Y)
    assert np.linalg.norm(ours - direct) <= 1e-9 * np.linalg.norm(direct)


def test_lstsq_dimension_mismatch():
    with pytest.raises(ValueError):
        lstsq_minnorm(np.eye(3), np.ones((4, 2)))


def _rank_deficient_theta():
    rng = np.random.default_rng(5)
    return rng.standard_normal((12, 3)) @ rng.standard_normal((3, 5))


@pytest.mark.parametrize(
    "theta",
    [
        np.random.default_rng(3).standard_normal((9, 4)),
        _rank_deficient_theta(),
        np.zeros((6, 3)),
        np.random.default_rng(4).standard_normal((3, 7)),
    ],
    ids=["tall", "rank-deficient", "zero", "wide"],
)
def test_lstsq_memo_is_bit_identical_and_factors_once(theta, monkeypatch):
    rng = np.random.default_rng(11)
    rhs = [rng.standard_normal((theta.shape[0], k)) for k in (1, 4, 4, 9)]
    fresh = [lstsq_minnorm(theta, Y) for Y in rhs]
    calls = []
    svd_impl = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd_impl(*a, **kw)
    )
    memo = {}
    for Y, want in zip(rhs, fresh):
        assert np.array_equal(lstsq_minnorm(theta, Y, memo=memo), want)
    assert len(calls) == 1
    if not theta.any():
        assert not any(out.any() for out in fresh)


def test_lstsq_rank_deficient_drops_small_singular_values():
    theta = _rank_deficient_theta()
    Y = np.random.default_rng(12).standard_normal((12, 2))
    out = lstsq_minnorm(theta, Y, memo={})
    np.testing.assert_allclose(out, np.linalg.pinv(theta) @ Y, rtol=1e-10, atol=1e-12)


def test_condition_number_cases():
    assert condition_number(np.eye(5)) == 1.0
    assert condition_number(np.diag([4.0, 2.0])) == pytest.approx(2.0)
    assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == np.inf


# ---------------------------------------------------------------------------
# random factories
# ---------------------------------------------------------------------------


def test_gaussian_matrix_deterministic_and_seed_sensitive():
    a = gaussian_matrix(2, 2, 42)
    b = gaussian_matrix(2, 2, 42)
    np.testing.assert_array_equal(a, b)
    c = gaussian_matrix(3, 3, 1)
    d = gaussian_matrix(3, 3, 2)
    assert not np.array_equal(c, d)


def test_gaussian_matrix_statistics():
    G = gaussian_matrix(1000, 1000, 7)
    assert -0.01 <= G.mean() <= 0.01
    assert 0.99 <= G.var() <= 1.01


def test_gaussian_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 3, 1)


def test_random_orthogonal_contract():
    # A square draw of random_orthonormal_columns is an orthogonal matrix.
    for n in (1, 3, 8):
        Q = random_orthonormal_columns(n, n, seed=5)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-10
    np.testing.assert_array_equal(
        random_orthonormal_columns(4, 4, 9), random_orthonormal_columns(4, 4, 9)
    )
    # 1x1 orthogonal group is {+1, -1}; the sign is fixed by the draw once
    # the triangular factor's diagonal is forced positive.
    assert random_orthonormal_columns(1, 1, seed=3)[0, 0] in (1.0, -1.0)


def test_random_orthonormal_columns_shape_and_orthogonality():
    Q = random_orthonormal_columns(10, 4, seed=2)
    assert Q.shape == (10, 4)
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-10)
    with pytest.raises(ValueError):
        random_orthonormal_columns(3, 5, seed=0)
