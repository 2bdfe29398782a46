"""Core linear algebra contracts: CPQR, least squares, random factories."""

import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from sparsesense import linalg
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


@pytest.mark.parametrize("shape", [(2 * 32 + 10, 150), (150, 2 * 32 + 10)])
def test_cpqr_factors_across_blocks(shape):
    # 74 and 40 pivots span more than one 32-step block of the CPQR kernel.
    V = np.random.default_rng(shape[0]).standard_normal(shape)
    before = V.copy()
    for k in (min(shape), 40):
        result, Q, R = cpqr_factors(V, k)
        np.testing.assert_array_equal(V, before)
        assert np.linalg.norm(V[:, result.permutation] - Q @ R) <= 1e-10 * np.linalg.norm(V)
        np.testing.assert_allclose(Q.T @ Q, np.eye(shape[0]), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(np.tril(R, -1), 0.0)
        np.testing.assert_allclose(np.abs(np.diag(R)[:k]), result.r_diag, rtol=1e-12, atol=0.0)
        assert result.pivots.tolist() == cpqr(V, k).pivots.tolist()


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


def _count_factorizations(monkeypatch) -> list:
    """Record each factorization of a Theta into its pseudoinverse, by
    either route, from now on."""
    calls = []
    pinv_impl = linalg._pinv
    monkeypatch.setattr(linalg, "_pinv", lambda theta: calls.append(1) or pinv_impl(theta))
    return calls


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
    calls = _count_factorizations(monkeypatch)
    memo = {}
    for Y, want in zip(rhs, fresh):
        assert np.array_equal(lstsq_minnorm(theta, Y, memo=memo), want)
    assert len(calls) == 1
    if not theta.any():
        assert not any(out.any() for out in fresh)


def test_lstsq_memo_hit_skips_the_finite_scan_but_checks_the_rows(monkeypatch):
    theta = np.random.default_rng(3).standard_normal((9, 4))
    Y = np.random.default_rng(4).standard_normal((9, 2))
    scans = []
    as_matrix = linalg.as_matrix
    monkeypatch.setattr(
        linalg,
        "as_matrix",
        lambda A, name="matrix", require_finite=True: (
            scans.append((name, require_finite)) or as_matrix(A, name, require_finite)
        ),
    )
    memo = {}
    first = lstsq_minnorm(theta, Y, memo=memo)
    again = lstsq_minnorm(theta, Y, memo=memo)
    assert np.array_equal(first, again)
    # Theta is scanned for NaN and Inf once, when its factors are computed.
    assert [scan for scan in scans if scan[0] == "Theta"] == [
        ("Theta", True), ("Theta", False)
    ]
    with pytest.raises(ValueError, match="row mismatch"):
        lstsq_minnorm(theta, np.ones((8, 2)), memo=memo)
    with pytest.raises(ValueError, match="NaN or Inf"):
        lstsq_minnorm(np.full((9, 4), np.nan), Y, memo={})


def test_lstsq_memo_answers_only_for_the_theta_that_filled_it(monkeypatch):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 3))
    B = rng.standard_normal((8, 5))
    Y = rng.standard_normal((8, 2))
    fresh = {id(theta): lstsq_minnorm(theta, Y) for theta in (A, B)}
    calls = _count_factorizations(monkeypatch)
    memo = {}
    for theta in (A, A, B, B, A):
        assert np.array_equal(lstsq_minnorm(theta, Y, memo=memo), fresh[id(theta)])
    # An equal Theta that is another array is factored again.
    assert np.array_equal(lstsq_minnorm(A.copy(), Y, memo=memo), fresh[id(A)])
    assert len(calls) == 4


def test_lstsq_rank_deficient_drops_small_singular_values():
    theta = _rank_deficient_theta()
    Y = np.random.default_rng(12).standard_normal((12, 2))
    out = lstsq_minnorm(theta, Y, memo={})
    np.testing.assert_allclose(out, np.linalg.pinv(theta) @ Y, rtol=1e-10, atol=1e-12)


def test_condition_number_cases():
    assert condition_number(np.eye(5)) == 1.0
    assert condition_number(np.diag([4.0, 2.0])) == pytest.approx(2.0)
    assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == np.inf


def _solve_counting_routes(monkeypatch, theta, Y):
    """lstsq_minnorm(theta, Y) with its route: "svd" when the factorization
    called np.linalg.svd, "qr" when it did not."""
    svds = []
    svd_impl = np.linalg.svd
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd_impl(*a, **kw))
        out = lstsq_minnorm(theta, Y)
    assert len(svds) <= 1
    return out, "svd" if svds else "qr"


def _with_spectrum(p, r, s, seed):
    """A p x r Theta with singular values s between seeded orthonormal
    frames."""
    k = len(s)
    U = random_orthonormal_columns(p, k, seed)
    V = random_orthonormal_columns(r, k, seed + 1)
    return (U * np.asarray(s, dtype=float)) @ V.T


def _at_the_margin(p, r, factor, seed):
    """A p x r Theta whose ||pinv(Theta)||_F ||Theta||_F is factor times the
    largest value the QR route admits: min(p, r) - 1 singular values 1 and
    one t < 1."""
    a = min(p, r) - 1
    B = factor / (max(p, r) * np.finfo(float).eps * linalg._QR_MARGIN)
    # (a + t^2)(a + 1 / t^2) = B^2 is a quadratic in u = t^2 whose roots
    # multiply to 1; 1 / (the larger root) avoids cancellation.
    b = B * B - a * a - 1.0
    t = np.sqrt(2.0 * a / (b + np.sqrt(b * b - 4.0 * a * a)))
    return _with_spectrum(p, r, [1.0] * a + [t], seed)


def _kahan(n, c):
    """Kahan's n x n upper triangular matrix: diag(1, s, ..., s^(n-1)) times
    (I - c * the strict upper ones), with s = sqrt(1 - c^2). Its diagonal is
    at least s^(n-1), yet sigma_min is far smaller."""
    s = np.sqrt(1.0 - c * c)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def _duplicated_rows(shape, seed):
    theta = np.random.default_rng(seed).standard_normal(shape)
    theta[1::2] = theta[::2][: theta[1::2].shape[0]]
    return theta


def _zero_column(seed):
    theta = np.random.default_rng(seed).standard_normal((12, 5))
    theta[:, 2] = 0.0
    return theta


_ROUTE_CASES = {
    "tall": (np.random.default_rng(31).standard_normal((30, 10)), "qr"),
    "wide": (np.random.default_rng(32).standard_normal((10, 30)), "qr"),
    "square": (np.random.default_rng(33).standard_normal((12, 12)) + 4 * np.eye(12), "qr"),
    "column": (np.random.default_rng(34).standard_normal((7, 1)), "qr"),
    "row": (np.random.default_rng(35).standard_normal((1, 7)), "qr"),
    "rank-deficient": (_rank_deficient_theta(), "svd"),
    "rank-deficient-wide": (_rank_deficient_theta().T, "svd"),
    "just-inside-margin": (_at_the_margin(40, 20, 0.95, 36), "qr"),
    "just-outside-margin": (_at_the_margin(40, 20, 1.05, 36), "svd"),
    "just-inside-margin-wide": (_at_the_margin(20, 40, 0.95, 37), "qr"),
    "just-outside-margin-wide": (_at_the_margin(20, 40, 1.05, 37), "svd"),
    "duplicate-rows-tall": (_duplicated_rows((14, 5), 38), "qr"),
    "duplicate-rows-wide": (_duplicated_rows((6, 9), 39), "svd"),
    "zero-column": (_zero_column(40), "svd"),
    "all-zero": (np.zeros((6, 3)), "svd"),
    "all-zero-wide": (np.zeros((3, 6)), "svd"),
    # sigma_min below the cutoff, though R's diagonal is at least 2e-4.
    "kahan-singular": (random_orthonormal_columns(120, 60, 41) @ _kahan(60, 0.5), "svd"),
    # sigma_min / sigma_max about 1e-12: above the cutoff, past the margin.
    "kahan-ill-conditioned": (random_orthonormal_columns(180, 90, 42) @ _kahan(90, 0.285), "svd"),
    "kahan-mild": (random_orthonormal_columns(40, 20, 43) @ _kahan(20, 0.3), "qr"),
}


def _check_against_pinv(theta, out, Y):
    """out is pinv(theta) @ Y, with the same cutoff as rank_cutoff, to
    within 10 max(dims) eps times the condition number of the kept
    spectrum, relative to ||pinv(theta)||_2 ||Y||_F."""
    s = np.linalg.svd(theta, compute_uv=False)
    cutoff = linalg.rank_cutoff(s, theta.shape)
    pinv = np.linalg.pinv(theta, rcond=max(theta.shape) * np.finfo(float).eps)
    want = pinv @ Y
    kept = s[s > cutoff]
    if kept.size == 0:
        assert not out.any() and not want.any()
        return
    scale = np.linalg.norm(Y) / kept[-1]
    tol = 10 * max(theta.shape) * np.finfo(float).eps * kept[0] / kept[-1]
    assert np.linalg.norm(out - want) <= tol * scale


@pytest.mark.parametrize("name", list(_ROUTE_CASES))
def test_lstsq_route_matches_pinv_and_never_takes_qr_at_the_cutoff(name, monkeypatch):
    theta, route = _ROUTE_CASES[name]
    Y = np.random.default_rng(44).standard_normal((theta.shape[0], 3))
    out, taken = _solve_counting_routes(monkeypatch, theta, Y)
    _check_against_pinv(theta, out, Y)
    s = np.linalg.svd(theta, compute_uv=False)
    if s[-1] <= linalg.rank_cutoff(s, theta.shape):
        assert route == "svd"
    assert taken == route


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_lstsq_certificate_overflow_takes_the_svd_quietly(scale, monkeypatch):
    # ||G||_F or ||R||_F overflows or underflows at these scales, so the
    # certificate cannot be evaluated and the SVD solves, with no warning.
    theta = np.random.default_rng(46).standard_normal((8, 4))
    Y = np.random.default_rng(47).standard_normal((8, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, taken = _solve_counting_routes(monkeypatch, scale * theta, Y)
    assert taken == "svd"
    np.testing.assert_allclose(out * scale, lstsq_minnorm(theta, Y), rtol=1e-12)


def test_lstsq_routes_on_seeded_spectra(monkeypatch):
    # Shapes from 1 to 24 on a side, spectra decaying geometrically over 0
    # to 20 decades, some with exact zeros: every Theta with a singular
    # value at or below rank_cutoff is solved by the SVD, and every
    # solution is pinv(Theta) @ Y.
    rng = np.random.default_rng(45)
    routes = Counter()
    for case in range(120):
        p, r = (int(v) for v in rng.integers(1, 25, size=2))
        k = min(p, r)
        s = 10.0 ** (-rng.uniform(0, 20) * np.linspace(0, 1, k))
        zeros = int(rng.integers(1, k + 1)) if rng.random() < 0.2 else 0
        s[k - zeros:] = 0.0
        theta = _with_spectrum(p, r, s * 10.0 ** rng.uniform(-5, 5), 1000 + case)
        Y = rng.standard_normal((p, 2))
        out, taken = _solve_counting_routes(monkeypatch, theta, Y)
        _check_against_pinv(theta, out, Y)
        sv = np.linalg.svd(theta, compute_uv=False)
        if sv[-1] <= linalg.rank_cutoff(sv, theta.shape):
            assert taken == "svd", (case, p, r)
        routes[taken] += 1
    assert min(routes["qr"], routes["svd"]) >= 20, routes


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
