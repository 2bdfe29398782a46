"""Noise model, budget arithmetic, composition grids, fidelity assignment."""

import math
import sys

import numpy as np
import pytest

from sparsesense.multifidelity import (
    BudgetSpec,
    Composition,
    NoiseModel,
    assign_fidelities,
    budget_from_endpoints,
    enumerate_compositions,
    noisy_measure,
)
from sparsesense.placement import SensorPlan, measure
from sparsesense.evaluation import _TAG_NOISE
from sparsesense.seeding import derive_seed


# ---------------------------------------------------------------------------
# budget_from_endpoints
# ---------------------------------------------------------------------------


def test_budget_from_endpoints_published_row():
    spec = budget_from_endpoints(400, 2, 1.0)
    assert spec.budget == pytest.approx(400.0)
    assert spec.cost_exp == pytest.approx(200.0)


def test_budget_from_endpoints_small_row():
    spec = budget_from_endpoints(4, 2, 1.0)
    assert spec.budget == pytest.approx(4.0)
    assert spec.cost_exp == pytest.approx(2.0)


def test_budget_from_endpoints_symmetric():
    spec = budget_from_endpoints(7, 7, 3.5)
    assert spec.cost_exp == pytest.approx(3.5)


def test_budget_from_endpoints_rejects_zero_counts():
    with pytest.raises(ValueError):
        budget_from_endpoints(0, 2, 1.0)
    with pytest.raises(ValueError):
        budget_from_endpoints(4, 0, 1.0)


@pytest.mark.parametrize("cost_cheap", [math.inf, math.nan, -1.0, 0.0])
def test_budget_from_endpoints_names_a_cost_that_is_not_positive_and_finite(cost_cheap):
    with pytest.raises(ValueError, match=f"cost_cheap must be positive and finite, got {cost_cheap}"):
        budget_from_endpoints(4, 2, cost_cheap)


@pytest.mark.parametrize(
    "p_cheap_max,p_exp_max,cost_cheap",
    [(4, 2, 1e308), (10**400, 2, 1.0), (4, 10**400, 1.0), (2, 1, sys.float_info.max)],
    ids=["product", "huge-p-cheap-max", "huge-p-exp-max", "max-float"],
)
def test_budget_from_endpoints_rejects_a_budget_beyond_the_floats(
    p_cheap_max, p_exp_max, cost_cheap
):
    # Overflow in the budget product, or an endpoint count no float holds.
    with pytest.raises(ValueError, match="is not a finite float") as info:
        budget_from_endpoints(p_cheap_max, p_exp_max, cost_cheap)
    assert str(info.value).startswith(f"cost_cheap = {cost_cheap!r}, p_cheap_max = {p_cheap_max}")


def test_budget_from_endpoints_names_an_expensive_cost_that_underflows():
    with pytest.raises(ValueError, match="cost_exp must be positive and finite, got 0.0"):
        budget_from_endpoints(1, 10**300, 5e-324)


@pytest.mark.parametrize("field", ["cost_cheap", "cost_exp", "budget"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -2.0])
def test_budget_spec_names_a_value_that_is_not_positive_and_finite(field, value):
    kwargs = dict(cost_cheap=1.0, cost_exp=2.0, budget=4.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
        BudgetSpec(**kwargs)


@pytest.mark.parametrize(
    "p_cheap_max,p_exp_max,cost_cheap",
    [(400, 3, 1.0), (97, 13, 0.3), (11, 7, 1.7), (1000, 999, 0.1)],
)
def test_budget_endpoints_survive_awkward_division(p_cheap_max, p_exp_max, cost_cheap):
    # Both extremes must stay exactly feasible and be recovered by the grid.
    spec = budget_from_endpoints(p_cheap_max, p_exp_max, cost_cheap)
    assert spec.is_feasible(p_cheap_max, 0)
    assert spec.is_feasible(0, p_exp_max)
    comps = enumerate_compositions(spec, 2)
    assert (comps[0].p_cheap, comps[0].p_exp) == (p_cheap_max, 0)
    assert (comps[-1].p_cheap, comps[-1].p_exp) == (0, p_exp_max)


# ---------------------------------------------------------------------------
# enumerate_compositions
# ---------------------------------------------------------------------------


def test_enumerate_three_step_grid():
    spec = BudgetSpec(cost_cheap=1.0, cost_exp=200.0, budget=400.0)
    comps = enumerate_compositions(spec, 3)
    assert [(c.p_cheap, c.p_exp) for c in comps] == [(400, 0), (200, 1), (0, 2)]


def test_enumerate_two_steps_is_endpoints_only():
    spec = budget_from_endpoints(10, 3, 1.0)
    comps = enumerate_compositions(spec, 2)
    assert [(c.p_cheap, c.p_exp) for c in comps] == [(10, 0), (0, 3)]


def test_enumerate_every_composition_is_feasible():
    spec = BudgetSpec(cost_cheap=1.0, cost_exp=200.0, budget=400.0)
    for comp in enumerate_compositions(spec, 21):
        assert 1.0 * comp.p_cheap + 200.0 * comp.p_exp <= 400.0
        assert spec.is_feasible(comp.p_cheap, comp.p_exp)


def test_enumerate_removes_duplicates_preserving_order():
    spec = budget_from_endpoints(4, 2, 1.0)
    comps = enumerate_compositions(spec, 9)
    keys = [(c.p_cheap, c.p_exp) for c in comps]
    assert len(keys) == len(set(keys))
    assert keys[0] == (4, 0) and keys[-1] == (0, 2)


def test_enumerate_rejects_single_step():
    with pytest.raises(ValueError):
        enumerate_compositions(budget_from_endpoints(4, 2, 1.0), 1)


# ---------------------------------------------------------------------------
# NoiseModel / assign_fidelities
# ---------------------------------------------------------------------------


def test_noise_model_sigmas_are_sqrt_of_level_times_variance():
    noise = NoiseModel(level_cheap=0.4, level_exp=0.01, reference_variance=25.0)
    assert noise.sigma_cheap == pytest.approx(math.sqrt(10.0))
    assert noise.sigma_exp == pytest.approx(0.5)


def test_noise_model_rejects_noisier_expensive():
    with pytest.raises(ValueError):
        NoiseModel(level_cheap=0.01, level_exp=0.02, reference_variance=1.0)


@pytest.mark.parametrize("levels", [
    (math.nan, 0.0), (math.inf, 0.0), (0.01, math.nan), (0.01, math.inf), (-0.01, 0.0),
])
def test_noise_model_rejects_negative_or_non_finite_levels(levels):
    with pytest.raises(ValueError, match="noise levels must be finite and non-negative"):
        NoiseModel(*levels, reference_variance=1.0)


def _plan(p):
    return SensorPlan(np.arange(p), "qr", p)


def test_assign_exp_first():
    noise = NoiseModel(0.04, 0.01, 1.0)
    sig = assign_fidelities(_plan(4), Composition(2, 2), noise, "exp-first")
    np.testing.assert_allclose(sig, [0.1, 0.1, 0.2, 0.2])


def test_assign_exp_last():
    noise = NoiseModel(0.04, 0.01, 1.0)
    sig = assign_fidelities(_plan(4), Composition(2, 2), noise, "exp-last")
    np.testing.assert_allclose(sig, [0.2, 0.2, 0.1, 0.1])


@pytest.mark.parametrize("assignment", ["exp-first", "exp-last"])
def test_assign_all_cheap_when_no_expensive(assignment):
    noise = NoiseModel(0.04, 0.01, 1.0)
    sig = assign_fidelities(_plan(3), Composition(3, 0), noise, assignment)
    np.testing.assert_allclose(sig, [0.2, 0.2, 0.2])


def test_assign_counts_exactly_p_exp_expensive_entries():
    noise = NoiseModel(0.09, 0.01, 1.0)
    sig = assign_fidelities(_plan(7), Composition(4, 3), noise, "exp-first")
    assert int(np.sum(sig == noise.sigma_exp)) == 3


def test_assign_rejects_count_mismatch():
    noise = NoiseModel(0.04, 0.01, 1.0)
    with pytest.raises(ValueError):
        assign_fidelities(_plan(4), Composition(2, 3), noise, "exp-first")


def test_assign_rejects_unknown_assignment():
    noise = NoiseModel(0.04, 0.01, 1.0)
    with pytest.raises(ValueError, match="assignment must be one of"):
        assign_fidelities(_plan(4), Composition(2, 2), noise, "middle")


# ---------------------------------------------------------------------------
# noisy_measure
# ---------------------------------------------------------------------------


def test_noisy_measure_zero_sigma_is_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 9))
    plan = SensorPlan(np.array([4, 1]), "qr", 2)
    Y = noisy_measure(X, plan, [0.0, 0.0], seed=1)
    np.testing.assert_array_equal(Y, X[[4, 1]])


def test_noisy_measure_sample_std():
    X = np.zeros((1, 100_000))
    plan = SensorPlan(np.array([0]), "qr", 1)
    Y = noisy_measure(X, plan, [2.0], seed=42)
    assert 1.99 <= float(np.std(Y)) <= 2.01


def test_noisy_measure_deterministic():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 30))
    plan = SensorPlan(np.array([0, 3]), "qr", 2)
    a = noisy_measure(X, plan, [1.0, 0.5], seed=9)
    b = noisy_measure(X, plan, [1.0, 0.5], seed=9)
    np.testing.assert_array_equal(a, b)
    c = noisy_measure(X, plan, [1.0, 0.5], seed=10)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", range(8))
def test_noisy_measure_is_the_gather_plus_the_scaled_draw(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 60)), int(rng.integers(1, 40))
    p = int(rng.integers(1, n + 1))
    X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3)
    plan = SensorPlan(rng.permutation(n)[:p], "qr", p)
    sigmas = rng.uniform(0.0, 2.0, p)
    sigmas[rng.random(p) < 0.3] = 0.0
    noise_seed = int(rng.integers(2**32))
    draw = np.random.default_rng(noise_seed).standard_normal((p, m))
    want = measure(X, plan) + draw * sigmas[:, None]
    # Row-major and column-major state matrices give the same bits.
    for state in (X, np.asfortranarray(X)):
        assert noisy_measure(state, plan, sigmas, noise_seed).tobytes() == want.tobytes()


# Noise seeds as sweeps derive them, four at or above 2^63 and two below,
# and the edges of the seed range.
_DERIVED = [
    derive_seed(master, _TAG_NOISE, s, c, z)
    for master in range(4)
    for s, c, z in [(0, 0, 0), (1, 2, 3), (19, 19, 9)]
]
_DRAW_SEEDS = (
    [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    + [s for s in _DERIVED if s >= 2**63][:4]
    + [s for s in _DERIVED if s < 2**63][:2]
)


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_a_draw_at_more_rows_starts_with_the_draw_at_fewer(seed):
    shapes = [(1, 1, 1), (5, 3, 2), (80, 120, 10), (80, 120, 79), (400, 120, 200), (9, 1, 9)]
    for rows, m, p in shapes:
        big = np.random.default_rng(seed).standard_normal((rows, m))
        small = np.random.default_rng(seed).standard_normal((p, m))
        assert big[:p].tobytes() == small.tobytes(), (
            "the first p rows of default_rng(seed).standard_normal((P, m)) are no "
            "longer the draw at (p, m): sweeps draw each (split, cv, noise) seed once "
            "at their largest p and hand every cell its first p rows "
            "(evaluation._sweep_errors), so their results now differ from run_trial's"
        )


@pytest.mark.parametrize("seed", range(4))
def test_noisy_measure_with_a_shared_draw_is_the_seeded_measurement(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 60)), int(rng.integers(1, 40))
    p = int(rng.integers(1, n))
    X = rng.standard_normal((n, m))
    plan = SensorPlan(rng.permutation(n)[:p], "qr", p)
    sigmas = rng.uniform(0.0, 2.0, p)
    noise_seed = int(rng.integers(2**64, dtype=np.uint64))
    draw = np.random.default_rng(noise_seed).standard_normal((n, m))
    before = draw.copy()
    want = noisy_measure(X, plan, sigmas, noise_seed).tobytes()
    # The first p rows of the seed's draw at n rows are its draw at p rows.
    assert noisy_measure(X, plan, sigmas, None, draw=draw).tobytes() == want
    assert noisy_measure(X, plan, sigmas, None, draw=draw[:p]).tobytes() == want
    # The shared draw serves other plans after this one: it is left as it was.
    assert draw.tobytes() == before.tobytes()
    for bad in (draw[: p - 1], draw[:, :-1], draw[0]):
        with pytest.raises(ValueError, match="draw has shape"):
            noisy_measure(X, plan, sigmas, None, draw=bad)


def test_noisy_measure_rejects_negative_sigma():
    plan = SensorPlan(np.array([0]), "qr", 1)
    with pytest.raises(ValueError):
        noisy_measure(np.eye(3), plan, [-1.0], seed=0)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324]
)
def test_noisy_measure_rejects_each_non_finite_or_negative_sigma(bad):
    plan = SensorPlan(np.array([2, 0, 1]), "qr", 3)
    for at in range(3):
        sigmas = [0.5, 0.0, 1.0]
        sigmas[at] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            noisy_measure(np.eye(3), plan, sigmas, seed=0)


def test_noisy_measure_accepts_signed_zero_sigmas():
    X = np.arange(12.0).reshape(3, 4)
    plan = SensorPlan(np.array([2, 0]), "qr", 2)
    Y = noisy_measure(X, plan, [-0.0, 0.0], seed=3)
    np.testing.assert_array_equal(Y, X[[2, 0]])


def test_noisy_measure_rejects_wrong_sigma_count():
    plan = SensorPlan(np.array([0, 1]), "qr", 2)
    with pytest.raises(ValueError):
        noisy_measure(np.eye(3), plan, [1.0], seed=0)
