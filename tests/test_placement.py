"""Sensor selection: pivots, oversampling strategies, rule dispatch, gather."""

import numpy as np
import pytest

from sparsesense.basis import Basis, randomized_basis, svd_basis
from sparsesense.linalg import cpqr
from sparsesense.placement import (
    PlacementPolicy,
    SensorPlan,
    measure,
    oversample_random,
    oversample_sigma_min,
    place,
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
# oversample_random
# ---------------------------------------------------------------------------


def test_oversample_random_requires_p_beyond_r():
    rng = np.random.default_rng(4)
    basis = _basis_from(rng.standard_normal((6, 2)))
    with pytest.raises(ValueError):
        oversample_random(basis, 2, seed=0)
    with pytest.raises(ValueError):
        oversample_random(basis, 7, seed=0)


def test_oversample_random_exhausts_all_rows():
    rng = np.random.default_rng(5)
    basis = _basis_from(rng.standard_normal((6, 2)))
    plan = oversample_random(basis, 6, seed=1)
    assert sorted(plan.locations.tolist()) == list(range(6))
    np.testing.assert_array_equal(
        plan.locations[:2], qr_pivots(basis, 2).locations
    )


def test_oversample_random_deterministic():
    rng = np.random.default_rng(6)
    basis = _basis_from(rng.standard_normal((20, 3)))
    a = oversample_random(basis, 9, seed=2)
    b = oversample_random(basis, 9, seed=2)
    np.testing.assert_array_equal(a.locations, b.locations)
    c = oversample_random(basis, 9, seed=3)
    assert not np.array_equal(a.locations, c.locations)


def test_oversample_random_draws_from_ascending_remaining_rows():
    # The seeded protocol fixes the draw: a uniform choice without
    # replacement from the rows outside the QR prefix, in ascending order.
    rng = np.random.default_rng(10)
    basis = _basis_from(rng.standard_normal((40, 4)))
    plan = oversample_random(basis, 15, seed=8)
    remaining = np.setdiff1d(np.arange(40), plan.locations[:4])
    want = np.random.default_rng(8).choice(remaining, size=11, replace=False)
    np.testing.assert_array_equal(plan.locations[4:], want)


# ---------------------------------------------------------------------------
# oversample_sigma_min
# ---------------------------------------------------------------------------


def test_sigma_min_hand_checked_example():
    basis = _basis_from(np.array([[1.0], [1.0], [0.1], [0.1]]))
    plan = oversample_sigma_min(basis, 2)
    assert plan.locations.tolist() == [0, 1]
    assert plan.method == "qr+odeim-e"


def _sigma_min(A):
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def test_sigma_min_each_step_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((30, 4))
    basis = _basis_from(psi)
    plan = oversample_sigma_min(basis, 9)
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
    plan = oversample_sigma_min(basis, 12)
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
        greedy = oversample_sigma_min(basis, 20)
        random_plan = oversample_random(basis, 20, seed=1000 + t)
        s_greedy = _sigma_min(basis.psi[greedy.locations])
        s_random = _sigma_min(basis.psi[random_plan.locations])
        wins += s_greedy >= s_random
    assert wins >= 0.8 * trials


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
