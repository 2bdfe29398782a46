"""Sensor selection: pivots, oversampling strategies, rule dispatch, gather."""

import numpy as np
import pytest

from sparsesense import kernels
from sparsesense.basis import Basis, randomized_basis, svd_basis
from sparsesense.linalg import cpqr
from sparsesense.placement import (
    PlacementPolicy,
    SensorPlan,
    measure,
    place,
    plan_with_modes,
    qr_pivots,
)


def _basis_from(psi):
    psi = np.asarray(psi, dtype=float)
    return Basis(psi, "svd", psi.shape[1])


# ---------------------------------------------------------------------------
# qr_pivots
# ---------------------------------------------------------------------------


def test_qr_pivots_disjoint_support_modes():
    psi = np.zeros((10, 2))
    psi[5, 0] = 1.0
    psi[2, 1] = 1.0
    plan = qr_pivots(_basis_from(psi), 2)
    assert plan.locations.tolist() == [2, 5]
    assert plan.method == "qr"


def test_qr_pivots_dominant_row_first():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((12, 2)) * 1e-3
    psi[7] = [10.0, 10.0]
    plan = qr_pivots(_basis_from(psi), 2)
    assert plan.locations[0] == 7


def test_qr_pivots_beat_median_random_selection():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((50, 5))
    plan = qr_pivots(_basis_from(psi), 5)
    greedy = abs(np.linalg.det(psi[plan.locations]))
    dets = []
    for _ in range(500):
        rows = rng.choice(50, size=5, replace=False)
        dets.append(abs(np.linalg.det(psi[rows])))
    assert greedy >= np.median(dets)


def test_qr_pivots_rejects_k_beyond_modes():
    rng = np.random.default_rng(2)
    basis = _basis_from(rng.standard_normal((8, 3)))
    with pytest.raises(ValueError, match="oversampling"):
        qr_pivots(basis, 4)


def test_qr_pivots_square_theta_volume_matches_rdiag():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((30, 6))
    plan = qr_pivots(_basis_from(psi), 6)
    det = abs(np.linalg.det(psi[plan.locations]))
    rdiag = cpqr(psi.T, 6).r_diag
    assert det == pytest.approx(float(np.prod(rdiag)), rel=1e-8)


# ---------------------------------------------------------------------------
# plan_with_modes, random oversampling
# ---------------------------------------------------------------------------


def test_oversample_random_requires_p_beyond_r():
    # At p <= r the plan is QR pivots only; a random tail needs p > r.
    rng = np.random.default_rng(4)
    basis = _basis_from(rng.standard_normal((6, 2)))
    assert plan_with_modes(basis, 2, "random", seed=0).method == "qr"
    with pytest.raises(ValueError):
        plan_with_modes(basis, 7, "random", seed=0)


def test_oversample_random_exhausts_all_rows():
    rng = np.random.default_rng(5)
    basis = _basis_from(rng.standard_normal((6, 2)))
    plan = plan_with_modes(basis, 6, "random", seed=1)
    assert sorted(plan.locations.tolist()) == list(range(6))
    np.testing.assert_array_equal(
        plan.locations[:2], qr_pivots(basis, 2).locations
    )


def test_oversample_random_deterministic():
    rng = np.random.default_rng(6)
    basis = _basis_from(rng.standard_normal((20, 3)))
    a = plan_with_modes(basis, 9, "random", seed=2)
    b = plan_with_modes(basis, 9, "random", seed=2)
    np.testing.assert_array_equal(a.locations, b.locations)
    c = plan_with_modes(basis, 9, "random", seed=3)
    assert not np.array_equal(a.locations, c.locations)


def test_oversample_random_draws_from_ascending_remaining_rows():
    # The seeded protocol fixes the draw: a uniform choice without
    # replacement from the rows outside the QR prefix, in ascending order.
    rng = np.random.default_rng(10)
    basis = _basis_from(rng.standard_normal((40, 4)))
    plan = plan_with_modes(basis, 15, "random", seed=8)
    remaining = np.setdiff1d(np.arange(40), plan.locations[:4])
    want = np.random.default_rng(8).choice(remaining, size=11, replace=False)
    np.testing.assert_array_equal(plan.locations[4:], want)


# ---------------------------------------------------------------------------
# plan_with_modes, odeim-e (greedy sigma_min) oversampling
# ---------------------------------------------------------------------------


def test_sigma_min_hand_checked_example():
    basis = _basis_from(np.array([[1.0], [1.0], [0.1], [0.1]]))
    plan = plan_with_modes(basis, 2, "odeim-e")
    assert plan.locations.tolist() == [0, 1]
    assert plan.method == "qr+odeim-e"


def _sigma_min(A):
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def test_sigma_min_each_step_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((30, 4))
    basis = _basis_from(psi)
    plan = plan_with_modes(basis, 9, "odeim-e")
    chosen = plan.locations.tolist()
    for step in range(4, 9):
        selected = chosen[:step]
        best = -np.inf
        for i in range(30):
            if i in selected:
                continue
            best = max(best, _sigma_min(psi[selected + [i]]))
        got = _sigma_min(psi[chosen[: step + 1]])
        assert got >= best - 1e-9 * max(best, 1.0)


def test_sigma_min_never_decreases_as_rows_added():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal((25, 5))
    basis = _basis_from(psi)
    plan = plan_with_modes(basis, 12, "odeim-e")
    values = [
        _sigma_min(psi[plan.locations[:q]]) for q in range(5, 13)
    ]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_sigma_min_beats_random_oversampling_in_most_trials():
    rng = np.random.default_rng(9)
    wins = 0
    trials = 10
    for t in range(trials):
        X = rng.standard_normal((200, 80))
        basis = svd_basis(X, 10)
        greedy = plan_with_modes(basis, 20, "odeim-e")
        random_plan = plan_with_modes(basis, 20, "random", seed=1000 + t)
        s_greedy = _sigma_min(basis.psi[greedy.locations])
        s_random = _sigma_min(basis.psi[random_plan.locations])
        wins += s_greedy >= s_random
    assert wins >= 0.8 * trials


# ---------------------------------------------------------------------------
# plan_with_modes (every plan's one builder)
# ---------------------------------------------------------------------------


def _modes_basis(kind="svd"):
    X = np.random.default_rng(19).standard_normal((30, 20))
    return svd_basis(X, 6) if kind == "svd" else randomized_basis(X, 6, seed=8)


@pytest.mark.parametrize("kind", ["svd", "randomized"])
def test_plan_with_modes_is_qr_then_oversampler(kind):
    basis = _modes_basis(kind)
    pivots = qr_pivots(basis, 6).locations
    for p in (1, 4, 6):
        plan = plan_with_modes(basis, p, seed=0)
        assert (plan.method, plan.r_used) == ("qr", 6)
        assert plan.locations.tolist() == pivots[:p].tolist()
    rand = plan_with_modes(basis, 13, "random", seed=2)
    assert rand.method == "qr+random-oversample"
    remaining = np.setdiff1d(np.arange(basis.n), pivots)
    want = np.random.default_rng(2).choice(remaining, size=7, replace=False)
    assert rand.locations[6:].tolist() == want.tolist()
    greedy = plan_with_modes(basis, 13, "odeim-e")
    assert greedy.method == "qr+odeim-e"
    want = kernels.sigma_min_tail(basis.psi, pivots, 7)
    assert greedy.locations[6:].tolist() == want.tolist()
    for plan in (rand, greedy):
        assert plan.locations[:6].tolist() == pivots.tolist()


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
def test_plan_with_modes_takes_cached_pivots(oversample):
    basis = _modes_basis()
    pivots = qr_pivots(basis, 6).locations
    for p in (3, 6, 11):
        fresh = plan_with_modes(basis, p, oversample, seed=5)
        cached = plan_with_modes(basis, p, oversample, seed=5, pivots=pivots)
        assert cached.locations.tolist() == fresh.locations.tolist()
        assert (cached.method, cached.r_used) == (fresh.method, fresh.r_used)


def test_plan_with_modes_randomized_basis_wider_than_n():
    X = np.random.default_rng(20).standard_normal((8, 12))
    basis = randomized_basis(X, 10, seed=3)
    pivots = qr_pivots(basis, 8).locations
    plan = plan_with_modes(basis, 8, pivots=pivots)
    assert sorted(plan.locations.tolist()) == list(range(8))
    assert (plan.method, plan.r_used) == ("qr", 10)


def test_plan_with_modes_rejects_bad_requests():
    basis = _modes_basis()
    with pytest.raises(ValueError, match="exceeds the state dimension"):
        plan_with_modes(basis, 31, seed=0)
    with pytest.raises(ValueError, match="needs a seed"):
        plan_with_modes(basis, 7)
    with pytest.raises(ValueError, match="oversample"):
        plan_with_modes(basis, 7, "uniform", seed=0)
    with pytest.raises(ValueError, match="QR pivots"):
        plan_with_modes(basis, 7, seed=0, pivots=qr_pivots(basis, 5).locations)


# ---------------------------------------------------------------------------
# place (mode-count rule dispatch)
# ---------------------------------------------------------------------------


def test_policy_mode_rule():
    policy = PlacementPolicy()
    assert policy.modes_for(8) == 8
    assert policy.modes_for(10) == 10
    assert policy.modes_for(100) == 50
    assert policy.modes_for(11) == 6
    custom = PlacementPolicy(small_p_threshold=4, oversample_factor=4.0)
    assert custom.modes_for(4) == 4
    assert custom.modes_for(40) == 10
    # The limit (min(n, m) of the data, or a basis's r) caps the rule.
    assert policy.modes_for(100, 60) == 50
    assert policy.modes_for(100, 30) == 30
    assert policy.modes_for(8, 5) == 5
    assert custom.modes_for(40, 10) == 10


def test_place_small_budget_is_pure_qr():
    rng = np.random.default_rng(10)
    basis = svd_basis(rng.standard_normal((40, 30)), 12)
    plan = place(basis, 8, seed=0)
    assert plan.method == "qr"
    assert plan.r_used == 8
    from sparsesense.basis import truncate_basis

    np.testing.assert_array_equal(
        plan.locations, qr_pivots(truncate_basis(basis, 8), 8).locations
    )


def test_place_large_budget_oversamples_half():
    rng = np.random.default_rng(11)
    basis = svd_basis(rng.standard_normal((150, 120)), 60)
    plan = place(basis, 100, seed=4)
    assert plan.method == "qr+random-oversample"
    assert plan.r_used == 50
    assert plan.p == 100


def test_place_every_row_once_when_p_equals_n():
    rng = np.random.default_rng(12)
    basis = svd_basis(rng.standard_normal((6, 8)), 2)
    plan = place(basis, 6, seed=5)
    assert sorted(plan.locations.tolist()) == list(range(6))


def test_place_undersampled_randomized_basis_uses_full_mode_set():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, 40))
    basis = randomized_basis(X, 20, seed=1)
    plan = place(basis, 5, seed=2)
    assert plan.method == "qr"
    assert plan.r_used == 20
    np.testing.assert_array_equal(plan.locations, qr_pivots(basis, 5).locations)


def test_place_sigma_min_policy():
    rng = np.random.default_rng(14)
    basis = svd_basis(rng.standard_normal((25, 20)), 12)
    plan = place(basis, 16, PlacementPolicy(oversample="odeim-e"))
    assert plan.method == "qr+odeim-e"
    assert plan.r_used == 8


def test_place_rejects_p_beyond_n():
    rng = np.random.default_rng(15)
    basis = svd_basis(rng.standard_normal((10, 8)), 4)
    with pytest.raises(ValueError):
        place(basis, 11, seed=0)


# ---------------------------------------------------------------------------
# measure / SensorPlan
# ---------------------------------------------------------------------------


def test_measure_identity_selection():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((5, 7))
    plan = SensorPlan(np.arange(5), "qr", 5)
    np.testing.assert_array_equal(measure(X, plan), X)


def test_measure_single_row():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((5, 7))
    plan = SensorPlan(np.array([3]), "qr", 1)
    np.testing.assert_array_equal(measure(X, plan), X[[3]])


def test_measure_rejects_out_of_range():
    plan = SensorPlan(np.array([9]), "qr", 1)
    with pytest.raises(ValueError):
        measure(np.eye(3), plan)


def test_sensor_plan_rejects_duplicates():
    with pytest.raises(ValueError):
        SensorPlan(np.array([1, 1]), "qr", 2)


@pytest.mark.parametrize("strategy", ["random", "odeim-e"])
def test_plans_are_distinct_and_sized(strategy):
    rng = np.random.default_rng(18)
    basis = svd_basis(rng.standard_normal((40, 30)), 6)
    policy = PlacementPolicy(oversample=strategy)
    plan = place(basis, 14, policy, seed=3)
    assert plan.p == 14
    assert len(set(plan.locations.tolist())) == 14
