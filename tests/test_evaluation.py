"""Reconstruction, error metrics, trial seeding, sweeps, classification."""

import gc
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from sparsesense import evaluation, kernels, linalg
from sparsesense.basis import Basis, _gram_modes, randomized_basis, svd_basis
from sparsesense.dataset import Dataset, SpectrumSpec, overall_variance, split, synthesize
from sparsesense.evaluation import (
    CellResult,
    ExperimentConfig,
    classify_composition_sweep,
    classify_regime,
    fractional_error,
    mf_sweep,
    min_error_curve,
    reconstruct,
    run_trial,
    sweep_modes_sensors,
)
from sparsesense.multifidelity import (
    BudgetSpec,
    Composition,
    NoiseModel,
    budget_from_endpoints,
    noisy_measure,
)
from sparsesense.placement import (
    PlacementPolicy,
    SensorPlan,
    plan_with_modes,
    qr_pivots,
)
from sparsesense.seeding import derive_seed


def _rank_limited_dataset(n=60, m=40, rank=6, seed=0):
    return synthesize(SpectrumSpec(10.0, -0.7, rank), n, m, seed=seed)


# ---------------------------------------------------------------------------
# reconstruct / fractional_error
# ---------------------------------------------------------------------------


def test_reconstruct_identity_basis_full_sensing():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((4, 6))
    basis = Basis(np.eye(4))
    plan = SensorPlan(np.arange(4), "qr", 4)
    np.testing.assert_allclose(reconstruct(basis, plan, Y), Y, atol=1e-12)


def test_reconstruct_zero_measurements_give_zero_state():
    rng = np.random.default_rng(1)
    basis = svd_basis(rng.standard_normal((10, 8)), 3)
    plan = qr_pivots(basis, 3)
    out = reconstruct(basis, plan, np.zeros((3, 5)))
    np.testing.assert_array_equal(out, np.zeros((10, 5)))


def test_reconstruct_exact_recovery_in_span():
    ds = _rank_limited_dataset()
    sd = split(ds, 0.8, seed=1)
    basis = svd_basis(sd.train, 6)
    plan = qr_pivots(basis, 6)
    Y = sd.test[plan.locations]
    Xhat = reconstruct(basis, plan, Y)
    assert fractional_error(sd.test, Xhat) <= 1e-8


def test_reconstruct_memo_reuses_theta_only_for_the_same_basis_and_plan():
    rng = np.random.default_rng(5)
    basis = svd_basis(rng.standard_normal((12, 9)), 4)
    other = svd_basis(rng.standard_normal((12, 9)), 4)
    plan_a = plan_with_modes(basis, 6, "random", 1)
    plan_b = plan_with_modes(basis, 6, "random", 2)
    assert plan_a.locations.tolist() != plan_b.locations.tolist()
    Y = rng.standard_normal((6, 3))
    memo = {}
    for b, plan in [(basis, plan_a), (basis, plan_b), (other, plan_b), (basis, plan_a)]:
        assert np.array_equal(reconstruct(b, plan, Y, memo=memo), reconstruct(b, plan, Y))


def test_fractional_error_trivials():
    X = np.array([[3.0, 4.0]])
    assert fractional_error(X, X) == 0.0
    assert fractional_error(X, np.zeros_like(X)) == pytest.approx(1.0)
    assert fractional_error(X, 2 * X) == pytest.approx(1.0)


def test_fractional_error_triangle_bound():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 5))
    Xhat = rng.standard_normal((5, 5))
    lhs = fractional_error(X, Xhat)
    rhs = fractional_error(X, np.zeros_like(X)) + np.linalg.norm(Xhat) / np.linalg.norm(X)
    assert lhs <= rhs + 1e-12


def test_fractional_error_rejects_zero_reference():
    with pytest.raises(ValueError):
        fractional_error(np.zeros((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# run_trial
# ---------------------------------------------------------------------------


def _noiseless_config(**kw):
    ds = _rank_limited_dataset()
    defaults = dict(
        dataset=ds,
        level_cheap=0.0,
        level_exp=0.0,
        n_splits=2,
        n_placement_cv=2,
        n_noise=1,
        master_seed=314,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_trial_exact_recovery_with_oversampling():
    config = _noiseless_config()
    err = run_trial(config, 0, 0, 0, (6, 12))
    assert err <= 1e-6


def test_run_trial_deterministic():
    ds = _rank_limited_dataset()
    config = ExperimentConfig(
        dataset=ds, level_cheap=0.02, level_exp=0.02,
        n_splits=2, n_placement_cv=2, n_noise=2, master_seed=7,
    )
    a = run_trial(config, 1, 1, 1, (4, 8))
    b = run_trial(config, 1, 1, 1, (4, 8))
    assert a == b


def test_run_trial_noise_index_matters():
    ds = _rank_limited_dataset()
    config = ExperimentConfig(
        dataset=ds, level_cheap=0.02, level_exp=0.02,
        n_splits=1, n_placement_cv=1, n_noise=2, master_seed=7,
    )
    assert run_trial(config, 0, 0, 0, (4, 8)) != run_trial(config, 0, 0, 1, (4, 8))


def test_run_trial_cache_does_not_change_results():
    from sparsesense.evaluation import _SweepCache

    ds = _rank_limited_dataset()
    config = ExperimentConfig(
        dataset=ds, level_cheap=0.05, level_exp=0.05,
        n_splits=2, n_placement_cv=2, n_noise=2, master_seed=99,
    )
    cache = _SweepCache()
    cached = [run_trial(config, s, c, z, (5, 10), cache)
              for s in range(2) for c in range(2) for z in range(2)]
    fresh = [run_trial(config, s, c, z, (5, 10))
             for s in range(2) for c in range(2) for z in range(2)]
    assert cached == fresh


def test_run_trial_rejects_out_of_range_indices():
    config = _noiseless_config()
    with pytest.raises(ValueError):
        run_trial(config, 2, 0, 0, (4, 8))
    with pytest.raises(ValueError):
        run_trial(config, 0, 0, 1, (4, 8))


def test_run_trial_rejects_infeasible_cell():
    config = _noiseless_config()
    with pytest.raises(ValueError, match="infeasible"):
        run_trial(config, 0, 0, 0, (4, 1000))


# ---------------------------------------------------------------------------
# sweep_modes_sensors
# ---------------------------------------------------------------------------


def test_sweep_single_cell_matches_direct_average():
    ds = _rank_limited_dataset()
    config = ExperimentConfig(
        dataset=ds, level_cheap=0.02, level_exp=0.02,
        n_splits=2, n_placement_cv=2, n_noise=2, master_seed=11,
    )
    [cell] = sweep_modes_sensors(config, [4], [8])
    direct = [run_trial(config, s, c, z, (4, 8))
              for s in range(2) for c in range(2) for z in range(2)]
    assert cell.mean_error == pytest.approx(float(np.mean(direct)), rel=1e-12)
    assert cell.trials == 8


def test_sweep_grid_shape_and_order():
    config = _noiseless_config()
    cells = sweep_modes_sensors(config, [3, 5], [6, 10])
    assert [(c.r, c.p) for c in cells] == [(3, 6), (3, 10), (5, 6), (5, 10)]


def test_sweep_threads_match_sequential():
    ds = _rank_limited_dataset()
    config = ExperimentConfig(
        dataset=ds, level_cheap=0.02, level_exp=0.02,
        n_splits=2, n_placement_cv=2, n_noise=2, master_seed=13,
    )
    seq = sweep_modes_sensors(config, [4, 5], [8], threads=1)
    par = sweep_modes_sensors(config, [4, 5], [8], threads=4)
    assert [(c.mean_error, c.std_error) for c in seq] == [
        (c.mean_error, c.std_error) for c in par
    ]


def test_sweep_rejects_infeasible_cell_by_name():
    config = _noiseless_config()
    with pytest.raises(ValueError, match=r"cell \(r=33, p=6\)"):
        sweep_modes_sensors(config, [33], [6])


# ---------------------------------------------------------------------------
# min_error_curve
# ---------------------------------------------------------------------------


def _cell(r, p, mean):
    return CellResult(r=r, p=p, mean_error=mean, std_error=0.0, trials=1)


def test_min_error_curve_single_r_is_identity():
    cells = [_cell(4, 10, 0.5), _cell(4, 20, 0.3)]
    curve = min_error_curve(cells)
    assert [(pt.p, pt.mean_error, pt.r) for pt in curve] == [
        (10, 0.5, 4),
        (20, 0.3, 4),
    ]


def test_min_error_curve_finds_constructed_minimum():
    cells = [_cell(2, 10, 0.4), _cell(5, 10, 0.2), _cell(9, 10, 0.3)]
    [pt] = min_error_curve(cells)
    assert (pt.r, pt.mean_error) == (5, 0.2)


def test_min_error_curve_tie_prefers_low_r():
    cells = [_cell(2, 10, 0.2), _cell(5, 10, 0.2)]
    [pt] = min_error_curve(cells)
    assert pt.r == 2


def test_min_error_curve_restricted_never_returns_r_at_or_above_p():
    cells = [_cell(10, 10, 0.1), _cell(3, 10, 0.5), _cell(12, 10, 0.05)]
    [pt] = min_error_curve(cells, restrict_fewer_modes=True)
    assert pt.r == 3
    cells = [_cell(10, 10, 0.1)]
    assert min_error_curve(cells, restrict_fewer_modes=True) == []


# ---------------------------------------------------------------------------
# mf_sweep
# ---------------------------------------------------------------------------


def test_mf_endpoints_match_single_fidelity_runs_exactly():
    ds = _rank_limited_dataset(n=40, m=30, rank=8, seed=5)
    budget = budget_from_endpoints(10, 3, 1.0)
    config = ExperimentConfig(
        dataset=ds,
        level_cheap=0.02,
        level_exp=0.01,
        budget=budget,
        composition_steps=3,
        n_splits=2,
        n_placement_cv=2,
        n_noise=2,
        master_seed=23,
    )
    results = mf_sweep(config)
    assert results[0].composition == Composition(10, 0)
    assert results[-1].composition == Composition(0, 3)
    # The all-cheap endpoint equals a single-fidelity sweep cell with the
    # same seeds and the rule-derived mode count.
    p = 10
    r = config.policy.modes_for(p)
    [cell] = sweep_modes_sensors(config, [r], [p])
    assert results[0].mean_error == cell.mean_error
    assert results[0].std_error == cell.std_error


def test_mf_equal_levels_make_fidelity_labels_vacuous():
    ds = _rank_limited_dataset(n=30, m=24, rank=6, seed=6)
    budget = budget_from_endpoints(4, 4, 1.0)  # every composition totals p=4
    config = ExperimentConfig(
        dataset=ds,
        level_cheap=0.03,
        level_exp=0.03,
        budget=budget,
        composition_steps=5,
        n_splits=2,
        n_placement_cv=2,
        n_noise=2,
        master_seed=31,
    )
    results = mf_sweep(config)
    assert all(res.composition.p == 4 for res in results)
    means = {res.mean_error for res in results}
    assert len(means) == 1  # identical sigmas and seeds, identical errors


def test_mf_zero_noise_error_decreases_with_total_p():
    ds = _rank_limited_dataset(n=50, m=40, rank=10, seed=7)
    budget = budget_from_endpoints(9, 3, 1.0)
    config = ExperimentConfig(
        dataset=ds,
        level_cheap=0.0,
        level_exp=0.0,
        budget=budget,
        composition_steps=3,
        n_splits=2,
        n_placement_cv=1,
        n_noise=1,
        master_seed=41,
    )
    results = mf_sweep(config)
    for a in results:
        for b in results:
            if a.composition.p > b.composition.p:
                assert a.mean_error <= b.mean_error + 1e-9


def test_mf_requires_budget():
    config = _noiseless_config()
    with pytest.raises(ValueError):
        mf_sweep(config)


def test_mf_skips_zero_sensor_composition_with_warning():
    ds = _rank_limited_dataset(n=20, m=16, rank=4, seed=9)
    budget = budget_from_endpoints(1, 1, 1.0)  # midpoint affords nothing
    config = ExperimentConfig(
        dataset=ds,
        level_cheap=0.0,
        level_exp=0.0,
        budget=budget,
        composition_steps=3,
        n_splits=1,
        n_placement_cv=1,
        n_noise=1,
        master_seed=43,
    )
    with pytest.warns(UserWarning, match="zero sensors"):
        results = mf_sweep(config)
    assert [(res.composition.p_cheap, res.composition.p_exp) for res in results] == [
        (1, 0),
        (0, 1),
    ]


def test_mf_rejects_a_budget_that_buys_no_sensor(monkeypatch):
    def no_split(*args):
        raise AssertionError("a split was built")

    monkeypatch.setattr(evaluation, "split", no_split)
    budget = BudgetSpec(10.0, 20.0, 5.0)
    config = ExperimentConfig(dataset=_rank_limited_dataset(), budget=budget)
    with pytest.warns(UserWarning, match="zero sensors"):
        with pytest.raises(ValueError, match=r"BudgetSpec\(cost_cheap=10.0, .*places no sensor"):
            mf_sweep(config)


def test_mf_respects_assignment_option():
    ds = _rank_limited_dataset(n=40, m=30, rank=8, seed=8)
    budget = budget_from_endpoints(8, 2, 1.0)
    base = dict(
        dataset=ds,
        level_cheap=0.4,
        level_exp=0.0,
        budget=budget,
        composition_steps=3,
        n_splits=1,
        n_placement_cv=1,
        n_noise=1,
        master_seed=51,
    )
    first = mf_sweep(ExperimentConfig(assignment="exp-first", **base))
    last = mf_sweep(ExperimentConfig(assignment="exp-last", **base))
    # Interior composition has both fidelities; moving the quiet sensors
    # changes the trial outcome.
    assert first[1].mean_error != last[1].mean_error
    # Endpoints are single-fidelity, so the assignment cannot matter.
    assert first[0].mean_error == last[0].mean_error
    assert first[-1].mean_error == last[-1].mean_error


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_regime_examples():
    assert classify_regime(0.10, 0.30) == "cheap"
    assert classify_regime(0.30, 0.285) == "inconclusive"
    assert classify_regime(0.50, 0.20) == "expensive"


def test_classify_regime_rejects_negative():
    with pytest.raises(ValueError):
        classify_regime(-0.1, 0.2)


def test_classify_composition_sweep_mixed_best():
    assert classify_composition_sweep([0.30, 0.20, 0.31]) == "mixed-best"
    assert classify_composition_sweep([0.30, 0.29, 0.31]) == "inconclusive"
    assert classify_composition_sweep([0.10, 0.50, 0.40]) == "cheap"
    assert classify_composition_sweep([0.50, 0.45, 0.10]) == "expensive"


def test_classify_composition_band_is_configurable():
    assert classify_composition_sweep([0.30, 0.10, 0.32], band=0.25) == "inconclusive"


@pytest.mark.parametrize("band", [-1.0, -1e-300, float("nan"), float("inf")])
def test_classifiers_reject_a_negative_or_non_finite_band(band):
    with pytest.raises(ValueError, match="band must be finite and non-negative"):
        classify_regime(0.1, 0.105, band=band)
    # Mixed-best is decided before the endpoints are compared.
    with pytest.raises(ValueError, match="band must be finite and non-negative"):
        classify_composition_sweep([0.1, 0.5, 0.1], band=band)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_classifiers_reject_a_negative_or_non_finite_error(bad):
    for errors in ((bad, 0.2), (0.2, bad)):
        with pytest.raises(ValueError, match="errors must be finite and non-negative"):
            classify_regime(*errors)
    for means in ([bad, 0.2, 0.3], [0.3, bad, 0.2], [0.3, 0.2, bad]):
        with pytest.raises(ValueError, match="errors must be finite and non-negative"):
            classify_composition_sweep(means)


def test_a_zero_band_decides_every_unequal_pair():
    assert classify_regime(0.1, 0.2, band=0.0) == "cheap"
    assert classify_regime(0.2, 0.1, band=0.0) == "expensive"
    assert classify_composition_sweep([0.3, 0.2, 0.3], band=0.0) == "mixed-best"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    ds = _rank_limited_dataset()
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, basis_kind="fourier")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, n_splits=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, level_cheap=0.01, level_exp=0.02)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, train_fraction=1.0)


@pytest.mark.parametrize("levels", [
    (-1.0, -2.0), (0.02, -0.01), (0.0, -1e-300),
    (float("nan"), 0.01), (0.02, float("nan")), (float("inf"), 0.01), (float("inf"), float("inf")),
])
def test_config_rejects_negative_or_non_finite_noise_levels(levels):
    ds = _rank_limited_dataset()
    with pytest.raises(ValueError, match="noise levels must be finite and non-negative"):
        ExperimentConfig(dataset=ds, level_cheap=levels[0], level_exp=levels[1])


def test_config_takes_zero_noise_levels():
    config = ExperimentConfig(dataset=_rank_limited_dataset(), level_cheap=0.0, level_exp=0.0)
    assert (config.level_cheap, config.level_exp) == (0.0, 0.0)


def test_config_digest_tracks_content():
    ds = _rank_limited_dataset()
    a = ExperimentConfig(dataset=ds, master_seed=1)
    b = ExperimentConfig(dataset=ds, master_seed=1)
    c = ExperimentConfig(dataset=ds, master_seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# A valid value other than the default for every field but the dataset; a
# field added to ExperimentConfig needs one here.
_OTHER_FIELD_VALUES = {
    "basis_kind": "randomized",
    "policy": PlacementPolicy(oversample="odeim-e"),
    "level_cheap": 0.03,
    "level_exp": 0.005,
    "assignment": "exp-last",
    "budget": budget_from_endpoints(10, 2, 0.5),
    "composition_steps": 5,
    "train_fraction": 0.7,
    "n_splits": 3,
    "n_placement_cv": 4,
    "n_noise": 5,
    "master_seed": 1,
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig) if f.name != "dataset"])
def test_config_digest_changes_with_every_field(name):
    assert set(_OTHER_FIELD_VALUES) == {
        f.name for f in fields(ExperimentConfig) if f.name != "dataset"
    }
    base = ExperimentConfig(dataset=_rank_limited_dataset())
    other = replace(base, **{name: _OTHER_FIELD_VALUES[name]})
    assert getattr(other, name) != getattr(base, name)
    assert other.digest() != base.digest()


def test_sigma_min_oversampling_through_sweep():
    ds = _rank_limited_dataset(n=30, m=24, rank=5, seed=12)
    config = ExperimentConfig(
        dataset=ds,
        policy=PlacementPolicy(oversample="odeim-e"),
        level_cheap=0.0,
        level_exp=0.0,
        n_splits=2,
        n_placement_cv=2,
        n_noise=1,
        master_seed=71,
    )
    [cell] = sweep_modes_sensors(config, [4], [9])
    # greedy tails are deterministic, so the cached sweep must equal fresh
    # per-trial recomputation
    direct = [run_trial(config, s, c, 0, (4, 9)) for s in range(2) for c in range(2)]
    assert cell.mean_error == pytest.approx(float(np.mean(direct)), rel=1e-12)
    # without a random tail or noise, the placement-CV axis is degenerate
    assert direct[0] == direct[1]
    assert direct[2] == direct[3]


def test_randomized_basis_trials_run():
    ds = _rank_limited_dataset(n=40, m=30, rank=8, seed=10)
    config = ExperimentConfig(
        dataset=ds,
        basis_kind="randomized",
        level_cheap=0.02,
        level_exp=0.02,
        n_splits=1,
        n_placement_cv=1,
        n_noise=1,
        master_seed=61,
    )
    # Undersampled (p < r), square (p = r) and oversampled (p > r) cells.
    cells = sweep_modes_sensors(config, [12], [6, 12, 24])
    assert all(np.isfinite(c.mean_error) for c in cells)


@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
def test_sweep_with_r_above_the_data_rank(basis_kind, oversample):
    config = ExperimentConfig(
        dataset=_rank_limited_dataset(n=60, m=40, rank=6, seed=13),
        basis_kind=basis_kind,
        policy=PlacementPolicy(oversample=oversample),
        n_splits=2,
        n_placement_cv=2,
        n_noise=2,
        master_seed=17,
    )
    # r = 10 and 20 exceed the rank 6; the CPQR pivots past the rank are
    # chosen among roundoff-level residuals.
    cells = sweep_modes_sensors(config, [4, 10, 20], [8, 20, 30], threads=1)
    assert all(np.isfinite([c.mean_error, c.std_error]).all() for c in cells)
    assert sweep_modes_sensors(config, [4, 10, 20], [8, 20, 30], threads=2) == cells


def test_sigma_min_mf_sweep_reuses_tails_and_matches_fresh_trials(monkeypatch):
    ds = _rank_limited_dataset(n=40, m=30, rank=8, seed=14)
    config = ExperimentConfig(
        dataset=ds,
        policy=PlacementPolicy(oversample="odeim-e"),
        level_cheap=0.02,
        level_exp=0.01,
        # Every composition has 11 to 16 sensors, so all oversample.
        budget=budget_from_endpoints(16, 11, 1.0),
        composition_steps=7,
        n_splits=2,
        n_placement_cv=2,
        n_noise=2,
        master_seed=29,
    )
    calls = []
    tail = kernels.sigma_min_tail

    def counting_tail(psi, prefix, count):
        calls.append(count)
        return tail(psi, prefix, count)

    monkeypatch.setattr(kernels, "sigma_min_tail", counting_tail)
    results = mf_sweep(config)
    modes = {config.policy.modes_for(res.composition.p) for res in results}
    # Compositions sharing a mode count share one greedy tail per split,
    # computed at the largest sensor count.
    assert len(modes) < len(results)
    assert len(calls) == config.n_splits * len(modes)
    for res in results:
        direct = [
            run_trial(config, s, c, z, res.composition)
            for s in range(2)
            for c in range(2)
            for z in range(2)
        ]
        assert res.mean_error == pytest.approx(float(np.mean(direct)), rel=1e-12)


# ---------------------------------------------------------------------------
# factor-once solves: one factorization per plan, bit-identical results
# ---------------------------------------------------------------------------


def _noisy_config(**kw):
    defaults = dict(
        dataset=_rank_limited_dataset(n=40, m=30, rank=8, seed=21),
        level_cheap=0.02,
        level_exp=0.01,
        n_splits=2,
        n_placement_cv=3,
        n_noise=3,
        master_seed=43,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _mf_config(**kw):
    # 4 to 18 sensors, a different count in each composition: the four
    # above 10 oversample, the rest are QR pivots only.
    return _noisy_config(
        budget=budget_from_endpoints(18, 4, 1.0),
        composition_steps=7,
        **kw,
    )


def _fresh_summary(config, cell):
    """Mean and std of per-trial errors, each trial on a fresh cache."""
    errors = np.array([
        run_trial(config, s, c, z, cell)
        for s in range(config.n_splits)
        for c in range(config.n_placement_cv)
        for z in range(config.n_noise)
    ])
    return float(np.mean(errors)), float(np.std(errors, ddof=1))


@pytest.mark.parametrize(
    "oversample,cell",
    [("random", (4, 10)), ("random", (6, 5)), ("odeim-e", (4, 9))],
    ids=["random-oversampled", "qr-only", "odeim-e"],
)
def test_sweep_cell_equals_fresh_trials_exactly(oversample, cell):
    config = _noisy_config(policy=PlacementPolicy(oversample=oversample))
    [res] = sweep_modes_sensors(config, [cell[0]], [cell[1]])
    assert (res.mean_error, res.std_error) == _fresh_summary(config, cell)


def test_mf_sweep_equals_fresh_trials_exactly():
    config = _mf_config()
    for res in mf_sweep(config):
        assert (res.mean_error, res.std_error) == _fresh_summary(config, res.composition)


@pytest.mark.parametrize("assignment", ["exp-first", "exp-last"])
def test_run_trial_on_counts_reproduces_each_mf_composition(assignment):
    # The configuration owns the assignment: a trial given only the counts
    # places the expensive sensors where the sweep did.
    config = _mf_config(assignment=assignment)
    results = mf_sweep(config)
    assert any(res.composition.p_cheap and res.composition.p_exp for res in results)
    for res in results:
        counts = Composition(res.composition.p_cheap, res.composition.p_exp)
        assert (res.mean_error, res.std_error) == _fresh_summary(config, counts)


def test_mf_randomized_composition_is_clamped_to_the_training_shape():
    # 10 snapshots train on 8; the all-cheap endpoint's 20 sensors ask the
    # rule for 10 modes, more than a basis from 8 snapshots can span.
    config = ExperimentConfig(
        dataset=_rank_limited_dataset(n=30, m=10, rank=6, seed=5),
        basis_kind="randomized",
        budget=budget_from_endpoints(20, 4, 1.0),
        composition_steps=3,
        n_splits=2,
        n_placement_cv=2,
        n_noise=2,
        master_seed=11,
    )
    results = mf_sweep(config)
    comp = results[0].composition
    assert (comp.p, config.m_train) == (20, 8)
    assert evaluation._resolve_cell(config, comp)[0] == 8
    mean, _ = _fresh_summary(config, comp)
    assert results[0].mean_error == pytest.approx(mean, rel=1e-12)


def test_mf_sweep_threads_match_sequential_exactly():
    config = _mf_config()
    sequential = mf_sweep(config, threads=1)
    assert mf_sweep(config, threads=2) == sequential
    # More workers than cores, switching often: a split's (split, cv) tasks
    # share its groups and open and drop their own concurrently.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert mf_sweep(config, threads=8) == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_every_trial_of_a_multi_cell_sweep_equals_a_fresh_trial(
    monkeypatch, basis_kind, oversample, threads
):
    # Cells with different r and p share each (split, cv, noise) draw, and
    # the grid holds QR-only (6, 5), random-tail or odeim-e cells.
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    config = _noisy_config(basis_kind=basis_kind, policy=PlacementPolicy(oversample=oversample))
    cells = [(r, p) for r in (4, 6) for p in (5, 10)]
    for cell, got in zip(cells, evaluation._sweep_errors(config, cells, threads), strict=True):
        want = [
            run_trial(config, s, c, z, cell)
            for s in range(config.n_splits)
            for c in range(config.n_placement_cv)
            for z in range(config.n_noise)
        ]
        assert got.tolist() == want


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_draws_each_noise_seed_once_at_its_largest_p(monkeypatch, threads):
    draws = []  # (seed, shape) of every standard-normal draw; append is atomic
    default_rng = np.random.default_rng

    class RecordingGenerator:
        def __init__(self, seed):
            self._seed, self._rng = seed, default_rng(seed)

        def standard_normal(self, size):
            draws.append((self._seed, tuple(size)))
            return self._rng.standard_normal(size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    sweep_config, mf_config = _noisy_config(), _mf_config()
    for config, sweep in (
        (sweep_config, lambda: sweep_modes_sensors(sweep_config, [4, 6], [5, 10], threads)),
        (mf_config, lambda: mf_sweep(mf_config, threads)),
    ):
        draws.clear()
        results = sweep()
        largest = max(getattr(res, "composition", res).p for res in results)
        seeds = [
            derive_seed(config.master_seed, evaluation._TAG_NOISE, s, c, z)
            for s in range(config.n_splits)
            for c in range(config.n_placement_cv)
            for z in range(config.n_noise)
        ]
        wanted = set(seeds)
        noise = [(seed, shape) for seed, shape in draws if seed in wanted]
        m_test = config.dataset.m - config.m_train
        assert sorted(noise) == sorted((seed, (largest, m_test)) for seed in seeds)


def test_sweep_cache_drops_every_factorization(monkeypatch):
    caches, live = [], []  # live: (solve groups, draws) in the cache at each trial

    class RecordingCache(evaluation._SweepCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    trial = evaluation.run_trial

    def recording_trial(config, s, c, z, cell, cache=None):
        live.append((len(cache.solves), len(cache.draws)))
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "_SweepCache", RecordingCache)
    monkeypatch.setattr(evaluation, "run_trial", recording_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    workers = 2
    # Five splits, more than the workers + 1 whose shared groups can be
    # alive at once.
    sweep_config, mf_config = _noisy_config(n_splits=5), _mf_config(n_splits=5)
    sweep_cells = [(r, p) for r in (4, 6) for p in (5, 10)]
    sweep_modes_sensors(sweep_config, [4, 6], [5, 10], threads=workers)
    sweep_live, live[:] = live[:], []
    mf_cells = [res.composition for res in mf_sweep(mf_config, threads=workers)]
    # One cache per split, in split order, each holding only its own split.
    splits = list(range(sweep_config.n_splits)) + list(range(mf_config.n_splits))
    assert [list(cache.splits) for cache in caches] == [[s] for s in splits]
    assert all(cache.solves == {} and cache.draws == {} for cache in caches)
    for config, cells, counts in (
        (sweep_config, sweep_cells, sweep_live),
        (mf_config, mf_cells, live),
    ):
        plans = {evaluation._resolve_cell(config, cell)[:2] for cell in cells}
        shared = sum(not evaluation._plan_varies_with_cv(config, r, p) for r, p in plans)
        assert 0 < shared < len(plans)
        # Every trial runs inside its plan's group. A split's shared groups
        # live from its (split, r) tasks to its last (split, cv) task, which
        # the FIFO pool bounds to workers + 1 splits at once; each running
        # (split, cv) task adds at most the one group of its random tail.
        groups = [count for count, _ in counts]
        bound = shared * min(config.n_splits, workers + 1) + workers
        assert 1 <= min(groups) and max(groups) <= bound
        # Each running (split, cv) task holds its own n_noise draws.
        draws = [count for _, count in counts]
        assert min(draws) >= config.n_noise and max(draws) <= workers * config.n_noise


@pytest.mark.parametrize("threads", [1, 2])
def test_a_splits_plan_groups_die_with_its_tasks(monkeypatch, threads):
    refs, live = [], []  # a weakref to each group's plan; live plans at each trial
    plan_group, trial = evaluation._plan_group, evaluation.run_trial

    def recording_group(*args):
        group = plan_group(*args)
        refs.append(weakref.ref(group["plan"]))
        return group

    def recording_trial(config, s, c, z, cell, cache=None):
        live.append(sum(ref() is not None for ref in refs))
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "_plan_group", recording_group)
    monkeypatch.setattr(evaluation, "run_trial", recording_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    # Eight splits, more than the workers + 1 whose shared groups can be
    # alive at once. Every odeim-e plan is shared by all cv draws of its
    # split; the mf sweep's random tails also give each cv draw its own.
    sweep_config = _noisy_config(policy=PlacementPolicy(oversample="odeim-e"), n_splits=8)
    mf_config = _mf_config(n_splits=8)
    for config, sweep in (
        (sweep_config, lambda: [
            (res.r, res.p) for res in sweep_modes_sensors(sweep_config, [4, 6], [5, 10], threads)
        ]),
        (mf_config, lambda: [res.composition for res in mf_sweep(mf_config, threads)]),
    ):
        refs.clear()
        live.clear()
        plans = {evaluation._resolve_cell(config, cell)[:2] for cell in sweep()}
        shared = sum(not evaluation._plan_varies_with_cv(config, r, p) for r, p in plans)
        own = len(plans) - shared
        assert shared > 0
        assert len(refs) == config.n_splits * (shared + own * config.n_placement_cv)
        # A split's shared groups live from its (split, r) tasks to its last
        # (split, cv) task, which the FIFO pool bounds to workers + 1 splits
        # at once; each running (split, cv) task adds its one random tail.
        bound = shared * min(config.n_splits, threads + 1) + min(own, 1) * threads
        assert 0 < min(live) and max(live) <= bound
        assert all(ref() is None for ref in refs)


_PER_TRIAL = ("run_trial", "reconstruct", "lstsq_minnorm", "noisy_measure")
_PER_PLAN = ("_get_plan", "measure")


def _count_work(monkeypatch, sweep):
    """Run sweep() counting split bases, factorizations of a Theta into its
    pseudoinverse (either route, as "factor"), distinct Thetas, per-trial
    layer calls and the per-plan work of building plans and Thetas."""
    calls = []  # list.append is atomic, so pool threads record without a lock
    thetas = set()
    bases = []  # keeps every basis alive, so its id names one basis

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if name == "reconstruct":
                basis, plan = args[0], args[1]
                bases.append(basis)
                thetas.add((id(basis), plan.locations.tobytes()))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "_pinv", counting("factor", linalg._pinv))
    monkeypatch.setattr(evaluation, "svd_basis", counting("svd_basis", evaluation.svd_basis))
    for name in _PER_TRIAL + _PER_PLAN:
        monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
    results = sweep()
    return results, Counter(calls), len(thetas)


def _plan_groups(config, cells) -> int:
    """Trial groups sharing one plan: one per split, or per split and cv
    draw for a random oversampling tail. Compositions with the same p have
    the same r and so share their plans."""
    plans = set()
    for cell in cells:
        r, p, _ = evaluation._resolve_cell(config, cell)
        varies = evaluation._plan_varies_with_cv(config, r, p)
        plans |= {
            (s, c if varies else None, r, p)
            for s in range(config.n_splits)
            for c in range(config.n_placement_cv)
        }
    return len(plans)


def test_sweep_factors_each_theta_once(monkeypatch):
    config = _noisy_config(basis_kind="randomized")
    results, counts, thetas = _count_work(
        monkeypatch, lambda: sweep_modes_sensors(config, [4, 6], [5, 10], threads=2)
    )
    # (4, 5), (4, 10) and (6, 10) oversample per cv draw; (6, 5) is QR-only.
    assert thetas == 3 * config.n_splits * config.n_placement_cv + config.n_splits
    # Each distinct Theta is factored once, by QR or by the SVD.
    assert counts["factor"] == thetas
    for name in _PER_TRIAL:
        assert counts[name] == len(results) * config.trials
    # Each group builds its plan and its Theta once.
    for name in _PER_PLAN:
        assert counts[name] == thetas


def test_mf_sweep_factors_each_theta_once(monkeypatch):
    # The second budget gives p = 16, 14, 12, 12, 10, 8, 8: two pairs of
    # compositions share a plan, and so one Theta.
    for config in (
        _mf_config(),
        _noisy_config(budget=budget_from_endpoints(16, 8, 1.0), composition_steps=7),
    ):
        with monkeypatch.context() as patch:
            results, counts, thetas = _count_work(
                patch, lambda: mf_sweep(config, threads=2)
            )
        # One basis per split, then one factorization per distinct Theta.
        assert counts["svd_basis"] == config.n_splits
        assert counts["factor"] == thetas
        assert thetas < counts["lstsq_minnorm"]
        for name in _PER_TRIAL:
            assert counts[name] == len(results) * config.trials
        groups = _plan_groups(config, [res.composition for res in results])
        assert thetas <= groups < len(results) * config.trials
        for name in _PER_PLAN:
            assert counts[name] == groups


def test_odeim_sweep_builds_each_plan_once(monkeypatch):
    config = _noisy_config(policy=PlacementPolicy(oversample="odeim-e"))
    cells = [(4, 5), (4, 10), (6, 5), (6, 10)]
    results, counts, _ = _count_work(
        monkeypatch, lambda: sweep_modes_sensors(config, [4, 6], [5, 10], threads=2)
    )
    for name in _PER_TRIAL:
        assert counts[name] == len(results) * config.trials
    groups = _plan_groups(config, cells)
    assert groups == len(cells) * config.n_splits
    assert counts["measure"] == groups
    # The longest p of each (split, r) runs first and builds the greedy
    # tail; every other group takes a prefix of it.
    assert counts["_get_plan"] == groups


def test_groups_shared_across_cv_draws_are_factored_once_under_contention(monkeypatch):
    # Every odeim-e group is shared by all the (split, cv) tasks of its
    # split; with more workers than cores, switching often, they race for
    # each group's first trial, and the group's lock lets one factor it.
    config = _noisy_config(
        dataset=synthesize(SpectrumSpec(10.0, -0.7, 40), 200, 60, seed=3),
        basis_kind="randomized", policy=PlacementPolicy(oversample="odeim-e"),
        n_splits=1, n_placement_cv=8, n_noise=1,
    )
    grid = [10, 20, 30], [20, 40, 60]
    sequential = sweep_modes_sensors(config, *grid, threads=1)
    factored = []
    pinv = linalg._pinv

    def counting_pinv(theta):
        factored.append(1)
        return pinv(theta)

    monkeypatch.setattr(linalg, "_pinv", counting_pinv)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            factored.clear()
            assert sweep_modes_sensors(config, *grid, threads=8) == sequential
            # One factorization, by either route, per cell's Theta.
            assert len(factored) == len(sequential)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_sweep_plans_are_the_library_plans_on_the_cached_basis(basis_kind, oversample):
    config = _noisy_config(basis_kind=basis_kind, policy=PlacementPolicy(oversample=oversample))
    cache = evaluation._SweepCache()
    r = 6
    for s in range(config.n_splits):
        pair = evaluation._get_pair(config, cache, s, r)
        basis = pair.basis
        if basis_kind == "svd":
            own = split(
                config.dataset,
                config.train_fraction,
                derive_seed(config.master_seed, evaluation._TAG_SPLIT, s),
            )
            assert np.array_equal(basis.psi, svd_basis(own.train, r).psi)
        # QR-only below and at r, then two oversampled p sharing r: the
        # shorter first, the longer, and the shorter again from the longer.
        for p in (4, 6, 9, 15, 9):
            for cv in range(config.n_placement_cv):
                got = evaluation._get_plan(config, pair, s, cv, p)
                if p <= r:
                    want = qr_pivots(basis, p)
                else:
                    seed = derive_seed(config.master_seed, evaluation._TAG_PLACEMENT, s, cv)
                    want = plan_with_modes(basis, p, oversample, seed)
                assert got.locations.tolist() == want.locations.tolist()
                assert (got.method, got.r_used) == (want.method, want.r_used)


def test_split_cache_keeps_a_row_major_test_matrix():
    r = 6
    for basis_kind in ("svd", "randomized"):
        config = _noisy_config(basis_kind=basis_kind)
        cache = evaluation._SweepCache()
        for s in range(config.n_splits):
            sd = evaluation._get_split(config, cache, s, r)
            own = split(
                config.dataset,
                config.train_fraction,
                derive_seed(config.master_seed, evaluation._TAG_SPLIT, s),
            )
            # The column gather gives a column-major test set; the cache
            # holds a row-major copy of it and no other.
            assert own.test.flags.f_contiguous and not own.test.flags.c_contiguous
            assert sd.test.flags.c_contiguous and sd.test.base is None
            assert np.array_equal(sd.test, own.test)
            # Pairs are built from the SVD basis of the leading r modes, or
            # from the training matrix itself.
            if basis_kind == "svd":
                assert np.array_equal(sd.source.psi, svd_basis(own.train, r).psi)
            else:
                assert np.array_equal(sd.source, own.train)
            # The norm is the split's own array's, summed in its memory order.
            assert sd.test_norm == float(np.linalg.norm(own.test))
            assert sd.noise == NoiseModel(
                config.level_cheap, config.level_exp, overall_variance(own.train)
            )
            assert evaluation._get_split(config, cache, s, r) is sd
            assert evaluation._get_split(config, cache, s, 1) is sd


def test_svd_sweeps_keep_the_leading_modes_of_their_largest_r(monkeypatch):
    caches = []

    class RecordingCache(evaluation._SweepCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(evaluation, "_SweepCache", RecordingCache)
    config, mf_config = _noisy_config(), _mf_config()
    sweep_modes_sensors(config, [4, 8, 6], [5, 10], threads=2)
    results = mf_sweep(mf_config, threads=2)
    mf_r = max(evaluation._resolve_cell(mf_config, res.composition)[0] for res in results)
    assert mf_r < min(40, mf_config.m_train)
    # One cache per split: the sweep's splits, then the mf sweep's.
    n = config.n_splits
    wants = [(s, 8) for s in range(n)] + [(s, mf_r) for s in range(mf_config.n_splits)]
    assert len(caches) == len(wants)
    for cache, (s, want) in zip(caches, wants):
        assert list(cache.splits) == [s] and cache.splits[s].source.r == want


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
def test_a_shared_cache_asked_for_more_modes_matches_fresh_trials(oversample):
    # Full-rank, well-posed training sets take the Gram route of svd_basis.
    # A record built at a small r is rebuilt for a larger one; the pairs of
    # the small r, built from the old record, still give fresh-trial bits.
    config = _noisy_config(
        dataset=synthesize(SpectrumSpec(10.0, -0.7, 30), 40, 30, seed=21),
        policy=PlacementPolicy(oversample=oversample),
    )
    cache = evaluation._SweepCache()
    largest = 0
    for r, p in [(3, 7), (8, 12), (3, 7), (5, 5)]:
        largest = max(largest, r)
        for s in range(config.n_splits):
            for c in range(config.n_placement_cv):
                for z in range(config.n_noise):
                    got = run_trial(config, s, c, z, (r, p), cache)
                    assert got == run_trial(config, s, c, z, (r, p))
            assert cache.splits[s].source.r == largest
    for s in range(config.n_splits):
        own = split(
            config.dataset,
            config.train_fraction,
            derive_seed(config.master_seed, evaluation._TAG_SPLIT, s),
        )
        assert _gram_modes(own.train, 1) is not None


# ---------------------------------------------------------------------------
# sweep-wide pool and the BLAS thread pin
# ---------------------------------------------------------------------------


# run_trial scores a draw in coefficient space, sqrt(perp2 + ||F c - A||^2),
# the full-state ||X_test - Psi c|| split by Pythagoras; the two sum their
# squares in different orders, so they agree to roundoff, not bit for bit.
_COEF_ATOL = 32 * np.finfo(np.float64).eps


def _full_state_error(config, r, p):
    """fractional_error(X_test, reconstruct(...)) of trial (0, 0, 0) at (r, p),
    built from the public functions run_trial composes."""
    seed = config.master_seed
    sd = split(config.dataset, config.train_fraction,
               derive_seed(seed, evaluation._TAG_SPLIT, 0))
    if config.basis_kind == "svd":
        basis = svd_basis(sd.train, r)
    else:
        basis = randomized_basis(sd.train, r, derive_seed(seed, evaluation._TAG_BASIS, 0))
    plan = plan_with_modes(
        basis, p, "random", derive_seed(seed, evaluation._TAG_PLACEMENT, 0, 0)
    )
    sigmas = np.full(p, np.sqrt(config.level_cheap * overall_variance(sd.train)))
    Y = noisy_measure(sd.test, plan, sigmas, derive_seed(seed, evaluation._TAG_NOISE, 0, 0, 0))
    return sd.test, fractional_error(sd.test, reconstruct(basis, plan, Y))


def _rank_r_config(rng, n, m_test, rank, level, seed, **overrides):
    # Data of the given rank, scaled from 1e-5 to 1e5, half of it test.
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, 2 * m_test))
    return ExperimentConfig(
        dataset=Dataset(X * 10.0 ** rng.uniform(-5, 5)),
        level_cheap=level, level_exp=level, train_fraction=0.5,
        n_splits=1, n_placement_cv=1, n_noise=1, master_seed=seed, **overrides,
    )


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 13), (300, 17)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_error_in_place_equals_fractional_error(shape, seed):
    # run_trial's coefficient-space error is fractional_error(X_test, Xhat)
    # of the same plan and draw, to a few dozen eps. shape is X_test's; the
    # data has rank r, scales from 1e-5 to 1e5 and noise from 1e-12 to 1 of
    # its spread, so the error spans roundoff to O(1).
    n, m_test = shape
    rng = np.random.default_rng(seed)
    r = min(n, m_test, 4)
    p = min(n, 2 * r)
    config = _rank_r_config(rng, n, m_test, r, 10.0 ** rng.uniform(-24, 0), seed)
    X_test, want = _full_state_error(config, r, p)
    assert X_test.shape == shape
    assert abs(run_trial(config, 0, 0, 0, (r, p)) - want) <= _COEF_ATOL


@pytest.mark.parametrize("r", [2, 5, 9, 30])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_frame_error_equals_fractional_error(r, seed):
    # A randomized basis is not orthonormal: run_trial scores it in the frame
    # of its QR factors, Psi = Q F. r runs below, at and above the rank 5 of
    # the data, and past n = 24, where Psi has more columns than rows.
    n, m_test, rank = 24, 11, 5
    rng = np.random.default_rng(seed)
    p = min(n, r + 4)
    config = _rank_r_config(
        rng, n, m_test, rank, 10.0 ** rng.uniform(-24, 0), seed, basis_kind="randomized"
    )
    _, want = _full_state_error(config, r, p)
    assert abs(run_trial(config, 0, 0, 0, (r, p)) - want) <= _COEF_ATOL


@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
@pytest.mark.parametrize("seed", range(4))
def test_noise_free_rank_r_recovery_scores_roundoff(basis_kind, seed):
    # The test set lies in range(Psi), so the part of it no estimate reaches
    # is roundoff, and so is the error. perp2 is the residual's own square
    # sum; ||X||^2 - ||A||^2 would cancel to about eps ||X||^2 and read 1e-8.
    r = 4
    rng = np.random.default_rng(seed)
    config = _rank_r_config(rng, 60, 20, r, 0.0, seed, basis_kind=basis_kind)
    for p in (r, 2 * r):
        assert run_trial(config, 0, 0, 0, (r, p)) <= 1e-12


def test_error_in_place_rejects_zero_reference(monkeypatch):
    # A split whose test snapshots are all zero has no error scale: its
    # record is refused, before the split's SVD, and a sweep stops there.
    config = _noisy_config(n_splits=1)
    sd = split(config.dataset, config.train_fraction,
               derive_seed(config.master_seed, evaluation._TAG_SPLIT, 0))
    X = config.dataset.X.copy()
    X[:, sd.test_indices] = 0.0
    config = _noisy_config(dataset=Dataset(X), n_splits=1)
    svds = []
    monkeypatch.setattr(evaluation, "svd_basis", lambda *args: svds.append(args))
    cache = evaluation._SweepCache()
    with pytest.raises(ValueError, match="test snapshots of split 0 have zero norm"):
        run_trial(config, 0, 0, 0, (4, 8), cache)
    assert cache.splits == {} and svds == []
    with pytest.raises(ValueError, match="test snapshots of split 0 have zero norm"):
        sweep_modes_sensors(config, [4], [8], threads=2)
    assert svds == []


@pytest.mark.parametrize("threads", [1, 2])
def test_a_zero_norm_split_is_named_after_earlier_splits_ran(monkeypatch, threads):
    # Only the last of five splits has all-zero test snapshots. Splits are
    # built as the sweep goes, and with at most workers + 1 <= 3 splits alive
    # split 0's trials have ended before split 4 is built, so its error
    # comes after them; it names the split.
    config = _noisy_config(n_splits=5)
    X = config.dataset.X.copy()
    X[:, split(config.dataset, config.train_fraction,
               derive_seed(config.master_seed, evaluation._TAG_SPLIT, 4)).test_indices] = 0.0
    config = replace(config, dataset=Dataset(X))
    ran = set()  # the splits whose trials ran
    trial = evaluation.run_trial

    def recording_trial(config, s, c, z, cell, cache):
        ran.add(s)
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "run_trial", recording_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="test snapshots of split 4 have zero norm"):
        sweep_modes_sensors(config, [4], [8], threads=threads)
    assert 0 in ran and 4 not in ran


@pytest.mark.parametrize("threads", [0, -1])
def test_sweeps_reject_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sweep_modes_sensors(_noisy_config(), [4], [5], threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        mf_sweep(_mf_config(), threads=threads)


@pytest.mark.parametrize(
    "cpus,threads,want", [(3, 8, 3), (4, 2, 2), (1, 8, None), (None, 4, None)]
)
def test_sweep_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, threads, want):
    sizes = []

    class RecordingPool(evaluation.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cpus)
    config = _noisy_config()
    assert sweep_modes_sensors(config, [4], [5, 10], threads=threads) == (
        sweep_modes_sensors(config, [4], [5, 10], threads=1)
    )
    # A single worker runs on the calling thread, without a pool.
    assert sizes == ([] if want is None else [want])


def test_compositions_sharing_a_plan_keep_their_own_results(monkeypatch):
    config = _noisy_config(
        dataset=_rank_limited_dataset(n=40, m=30, rank=8, seed=5),
        budget=budget_from_endpoints(10, 5, 1.0),
        composition_steps=11,
    )
    sequential = mf_sweep(config, threads=1)
    pairs = [(res.composition.p_cheap, res.composition.p_exp) for res in sequential]
    # Both have p = 9, so they solve with the same plan of the same split.
    assert (9, 0) in pairs and (8, 1) in pairs
    assert mf_sweep(config, threads=2) == sequential
    for res in sequential:
        assert (res.mean_error, res.std_error) == _fresh_summary(config, res.composition)
    # More workers than cores, switching often, on one sweep-wide pool.
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert mf_sweep(config, threads=8) == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def blas_scale_config():
    """n = 1024 sensors, p up to 200 and r up to 100: shapes at which BLAS
    splits its work over threads."""
    if kernels._blas_control() is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    ds = synthesize(SpectrumSpec(1.21e5, -1.1, 160), n=1024, m=160, seed=3)
    return ExperimentConfig(
        dataset=ds,
        level_cheap=0.02,
        level_exp=0.01,
        budget=budget_from_endpoints(200, 4, 1.0),
        composition_steps=4,
        n_splits=1,
        n_placement_cv=2,
        n_noise=2,
        master_seed=9,
    )


def test_sweeps_do_not_depend_on_the_blas_thread_count(blas_scale_config):
    config = blas_scale_config
    get, set_ = kernels._blas_control()
    saved = get()
    runs = []
    try:
        for preset in (2, 1):
            set_(preset)
            for threads in (1, 2):
                runs.append((
                    sweep_modes_sensors(config, [20, 100], [40, 200], threads=threads),
                    mf_sweep(config, threads=threads),
                ))
                assert get() == preset
    finally:
        set_(saved)
    assert all(run == runs[0] for run in runs[1:])


def test_sweep_error_cancels_the_queued_trials(monkeypatch):
    calls = []

    def failing_trial(config, s, c, z, cell, cache=None):
        calls.append(cell)
        if len(calls) == 1:
            raise RuntimeError("trial failed")
        time.sleep(0.01)
        return 0.0

    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(evaluation, "run_trial", failing_trial)
    config = _noisy_config()
    with pytest.raises(RuntimeError, match="trial failed"):
        sweep_modes_sensors(config, [4], [5, 10], threads=2)
    assert len(calls) < 2 * config.trials // 2


def test_sweep_with_a_repeated_cell_runs_it_once(monkeypatch):
    config = _noisy_config()
    single = sweep_modes_sensors(config, [4], [10])
    calls = []
    trial = evaluation.run_trial

    def counting_trial(*args):
        calls.append(args[1:4])
        return trial(*args)

    monkeypatch.setattr(evaluation, "run_trial", counting_trial)
    repeated = sweep_modes_sensors(config, [4, 4], [10], threads=2)
    assert repeated == single * 2
    assert len(calls) == config.trials


# ---------------------------------------------------------------------------
# nasty inputs: every row a sensor, zero-variance data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_sweep_cells_with_a_sensor_on_every_row(basis_kind, oversample):
    config = _noisy_config(basis_kind=basis_kind, policy=PlacementPolicy(oversample=oversample))
    n = config.dataset.n
    results = sweep_modes_sensors(config, [4, 12], [12, n], threads=1)
    assert all(np.isfinite([c.mean_error, c.std_error]).all() for c in results)
    assert sweep_modes_sensors(config, [4, 12], [12, n], threads=2) == results
    for res in results:
        if res.p == n:
            assert (res.mean_error, res.std_error) == _fresh_summary(config, (res.r, res.p))


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_sweeps_on_zero_variance_data(basis_kind, oversample):
    # Every snapshot is the same constant field: the data has rank one and
    # its variance, so every noise level, is zero.
    config = _noisy_config(
        dataset=Dataset(np.full((30, 24), 2.5)),
        basis_kind=basis_kind,
        policy=PlacementPolicy(oversample=oversample),
        budget=budget_from_endpoints(18, 4, 1.0),
        composition_steps=4,
    )
    cells = sweep_modes_sensors(config, [1, 4], [4, 10], threads=1)
    comps = mf_sweep(config, threads=1)
    for res in cells + comps:
        assert np.isfinite([res.mean_error, res.std_error]).all()
    assert sweep_modes_sensors(config, [1, 4], [4, 10], threads=2) == cells
    assert mf_sweep(config, threads=2) == comps


# ---------------------------------------------------------------------------
# ownership: one pool task per (split, r) and one per (split, cv)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_a_sweep_keeps_one_record_per_split_and_per_split_and_r(
    monkeypatch, basis_kind, oversample
):
    caches = []

    class RecordingCache(evaluation._SweepCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(evaluation, "_SweepCache", RecordingCache)
    config = _noisy_config(basis_kind=basis_kind, policy=PlacementPolicy(oversample=oversample))
    r_grid = [4, 6, 8]
    sweep_modes_sensors(config, r_grid, [5, 10], threads=2)
    # One cache per split, in split order: its own split and its own pairs.
    assert len(caches) == config.n_splits
    for s, cache in enumerate(caches):
        assert list(cache.splits) == [s]
        assert sorted(cache.pairs) == [(s, r) for r in r_grid]
        assert cache.solves == {}
        source = cache.splits[s].source
        assert isinstance(source, Basis) == (basis_kind == "svd")
        for r in r_grid:
            pair = cache.pairs[s, r]
            assert pair.basis.r == r and pair.pivots.size == r
            # SVD bases are views of the split's modes, not copies.
            if basis_kind == "svd":
                assert np.shares_memory(pair.basis.psi, source.psi)
            # Only odeim-e sweeps keep a greedy plan: the longest, p = 10.
            if oversample == "odeim-e":
                assert pair.greedy.p == 10
            else:
                assert pair.greedy is None


def test_svd_split_records_drop_the_training_matrix(monkeypatch):
    refs = {}  # split seed -> a weakref to that split's training matrix
    built = []  # every such weakref, in build order
    checked = []  # (basis kind, split) of every trial, after its check
    split_impl, trial = evaluation.split, evaluation.run_trial

    def recording_split(ds, fraction, seed):
        sd = split_impl(ds, fraction, seed)
        refs[seed] = weakref.ref(sd.train)
        built.append(refs[seed])
        return sd

    def checking_trial(config, s, c, z, cell, cache):
        # While the split's trials run, an SVD split keeps no training
        # matrix: it builds its pairs from its modes. A randomized split
        # builds them from the training matrix itself.
        train = refs[derive_seed(config.master_seed, evaluation._TAG_SPLIT, s)]()
        if config.basis_kind == "svd":
            assert train is None
        else:
            assert train is not None and train is cache.splits[s].source
        checked.append((config.basis_kind, s))
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "split", recording_split)
    monkeypatch.setattr(evaluation, "run_trial", checking_trial)
    for basis_kind in ("svd", "randomized"):
        config = _noisy_config(basis_kind=basis_kind)
        sweep_modes_sensors(config, [4, 6], [5, 10], threads=2)
    n = config.n_splits
    assert len(built) == 2 * n
    assert Counter(checked) == {
        (kind, s): 4 * config.n_placement_cv * config.n_noise
        for kind in ("svd", "randomized")
        for s in range(n)
    }
    # After the sweep every split record, so every training matrix, is gone.
    gc.collect()
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_at_most_workers_plus_one_splits_are_alive(monkeypatch, threads):
    live = weakref.WeakValueDictionary()  # id -> every split record still alive
    counts = []  # live split records at each trial
    get_split, trial = evaluation._get_split, evaluation.run_trial

    def recording_get_split(*args):
        record = get_split(*args)
        live[id(record)] = record
        return record

    def counting_trial(*args):
        counts.append(len(live))
        return trial(*args)

    monkeypatch.setattr(evaluation, "_get_split", recording_get_split)
    monkeypatch.setattr(evaluation, "run_trial", counting_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 8)
    dataset = synthesize(SpectrumSpec(10.0, -0.7, 30), 40, 30, seed=21)
    sweep_config = _noisy_config(
        dataset=dataset, policy=PlacementPolicy(oversample="odeim-e"), n_splits=8
    )
    mf_config = _mf_config(dataset=dataset, n_splits=8)
    for config, sweep in (
        (sweep_config, lambda: sweep_modes_sensors(sweep_config, [4, 6], [5, 10], threads)),
        (mf_config, lambda: mf_sweep(mf_config, threads)),
    ):
        counts.clear()
        sweep()
        # The calling thread builds split s only once the trials of the
        # splits before s - workers have ended.
        assert 1 <= min(counts) and max(counts) <= threads + 1
        assert len(live) == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_an_error_stops_the_split_stage(monkeypatch, threads):
    splits, slow = [], []  # split calls; the other split-0 trials that ran
    split_impl = evaluation.split

    def counting_split(*args):
        splits.append(args[2])
        return split_impl(*args)

    def failing_trial(config, s, c, z, cell, cache):
        if s == 0 and c == 0:
            raise RuntimeError("trial failed")
        if s == 0:
            # The rest of split 0 is slow: the sweep ends on the first
            # error, without waiting for the split's other tasks.
            time.sleep(0.05)
            slow.append(c)
        return 0.0

    monkeypatch.setattr(evaluation, "split", counting_split)
    monkeypatch.setattr(evaluation, "run_trial", failing_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    config = _noisy_config(n_splits=8)
    with pytest.raises(RuntimeError, match="trial failed"):
        sweep_modes_sensors(config, [4, 6], [5, 10], threads=threads)
    assert len(splits) < config.n_splits
    assert len(slow) < 4 * (config.n_placement_cv - 1) * config.n_noise


def test_an_error_in_a_newer_split_ends_the_sweep_while_the_oldest_runs(monkeypatch):
    # Two workers: split 0's one (split, cv) task is slow on the first,
    # while split 1's fails on the second. The calling thread has built its
    # window of workers + 1 splits and waits; it must see split 1's error
    # at once, not after split 0 ends.
    splits, slow = [], []  # split calls; the split-0 trials that ran
    split_impl = evaluation.split

    def counting_split(*args):
        splits.append(1)
        return split_impl(*args)

    def failing_trial(config, s, c, z, cell, cache):
        if s == 1:
            raise RuntimeError("trial failed")
        if s == 0:
            time.sleep(0.05)
            slow.append(cell)
        return 0.0

    monkeypatch.setattr(evaluation, "split", counting_split)
    monkeypatch.setattr(evaluation, "run_trial", failing_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    config = _noisy_config(n_splits=8, n_placement_cv=1)
    with pytest.raises(RuntimeError, match="trial failed"):
        sweep_modes_sensors(config, [4, 6], [5, 10], threads=2)
    # No split is built after the error, and split 0 stops at its next plan.
    assert len(splits) == 3
    assert len(slow) < 4 * config.n_noise


def _ended_within(seconds, sweep):
    """Run sweep() on a thread of its own, which must end within
    ``seconds``, so a sweep that hangs fails the test instead of stalling
    the run; returns the error it raised, or None."""
    raised = []

    def run():
        try:
            sweep()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the sweep did not end within {seconds} s"
    return raised[0] if raised else None


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_a_pivot_error_wakes_every_task_waiting_for_its_ranks(monkeypatch, threads):
    # Each split's pivot task publishes its first rank, then fails on the
    # second once the (split, cv) tasks have run the first and wait for
    # it: they must wake, the pool must shut down and the sweep must raise
    # the pivot task's error.
    ranks = [8, 6, 4]
    ran = []  # the rank of every trial that ran
    trial_ran = threading.Event()
    pivots, trial = evaluation.qr_pivots, evaluation.run_trial

    def failing_pivots(basis, k):
        if basis.r == ranks[1]:
            if threads > 1:
                # At threads = 1 no trial runs before the pivot task ends.
                trial_ran.wait(5)
                time.sleep(0.1)
            raise RuntimeError("pivots failed")
        return pivots(basis, k)

    def recording_trial(config, s, c, z, cell, cache):
        ran.append(cell[0])
        trial_ran.set()
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "qr_pivots", failing_pivots)
    monkeypatch.setattr(evaluation, "run_trial", recording_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 4)
    config = _noisy_config(n_splits=4)
    raised = _ended_within(
        30, lambda: sweep_modes_sensors(config, ranks, [5, 10], threads=threads)
    )
    assert isinstance(raised, RuntimeError) and str(raised) == "pivots failed"
    # No rank after the failed one was published.
    assert set(ran) == ({ranks[0]} if threads > 1 else set())


def test_after_a_failure_each_other_worker_ends_within_its_plan(monkeypatch):
    # A task that raises sets the stop flag itself, so every other worker
    # finishes at most the plan it was in when the trial failed: here one
    # cell, so at most n_noise = 3 trials. When only the calling thread set
    # the flag, after it woke, 0-42 more trials ran on this probe.
    failures, started = [], []  # when a trial failed; (thread, split, cv, cell, start)
    trial = evaluation.run_trial

    def failing_trial(config, s, c, z, cell, cache):
        if s == 3:
            failures.append(time.perf_counter())
            raise RuntimeError("trial failed")
        started.append((threading.get_ident(), s, c, cell, time.perf_counter()))
        return trial(config, s, c, z, cell, cache)

    monkeypatch.setattr(evaluation, "run_trial", failing_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    config = _noisy_config(n_splits=12)
    for _ in range(5):
        failures.clear()
        started.clear()
        with pytest.raises(RuntimeError, match="trial failed"):
            sweep_modes_sensors(config, [4, 6], [5, 10], threads=2)
        late = Counter(
            (thread, s, c, cell)
            for thread, s, c, cell, start in started
            if start > min(failures)
        )
        # Per thread at most one plan of one (split, cv) draw.
        threads = [thread for thread, *_ in late]
        assert len(threads) == len(set(threads))
        assert all(count <= config.n_noise for count in late.values())


def test_trials_start_before_the_last_rank_is_pivoted(monkeypatch):
    # The last rank's pivots wait for the sweep's first trial. They get it
    # only if trials start once the first rank is published, not the last.
    ranks = [8, 6, 4]
    config = _noisy_config(n_splits=1)
    sequential = sweep_modes_sensors(config, ranks, [5, 10], threads=1)
    first_trial = threading.Event()
    running, overlap = [0], []  # qr_pivots calls running; the count at each start
    count_lock = threading.Lock()
    pivots, trial = evaluation.qr_pivots, evaluation.run_trial

    def waiting_pivots(basis, k):
        with count_lock:
            running[0] += 1
            overlap.append(running[0])
        try:
            if basis.r == ranks[-1] and not first_trial.wait(5):
                raise RuntimeError("no trial started before the last rank's pivots")
            return pivots(basis, k)
        finally:
            with count_lock:
                running[0] -= 1

    def signalling_trial(*args):
        first_trial.set()
        return trial(*args)

    monkeypatch.setattr(evaluation, "qr_pivots", waiting_pivots)
    monkeypatch.setattr(evaluation, "run_trial", signalling_trial)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
    results = []
    sweep = lambda: results.append(sweep_modes_sensors(config, ranks, [5, 10], threads=2))
    assert _ended_within(30, sweep) is None
    assert results == [sequential]
    # One qr_pivots call per rank, and never two of the split at once.
    assert overlap == [1] * len(ranks)


def test_each_split_builds_one_noise_model(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return NoiseModel(*args)

    # A configuration checks its levels with a NoiseModel of its own, so
    # both are made before the count starts.
    sweep_config, mf_config = _noisy_config(), _mf_config()
    monkeypatch.setattr(evaluation, "NoiseModel", counting)
    results = mf_sweep(mf_config, threads=2)
    sweep_modes_sensors(sweep_config, [4, 6], [5, 10], threads=2)
    groups = _plan_groups(mf_config, [res.composition for res in results])
    assert groups > mf_config.n_splits
    assert len(built) == mf_config.n_splits + sweep_config.n_splits


def test_single_fidelity_sweeps_do_not_depend_on_level_exp():
    # An (r, p) cell puts all p sensors at level_cheap, whatever level_exp is.
    cells = [
        sweep_modes_sensors(_noisy_config(level_exp=level_exp), [4, 6], [5, 10], threads=1)
        for level_exp in (0.0, 0.01, 0.02)
    ]
    assert cells[0] == cells[1] == cells[2]


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis_kind", ["svd", "randomized"])
def test_each_split_and_r_is_prepared_once_on_the_thread_of_its_trials(
    monkeypatch, basis_kind, oversample
):
    config = _noisy_config(basis_kind=basis_kind, policy=PlacementPolicy(oversample=oversample))
    r_grid, p_grid = [4, 6], [5, 10]
    sequential = sweep_modes_sensors(config, r_grid, p_grid, threads=1)
    calls = []  # (layer, key, thread); list.append is atomic
    caches = []

    def recording(name, fn, key):
        def wrapper(*args):
            calls.append((name, key(*args), threading.get_ident()))
            return fn(*args)

        return wrapper

    class RecordingCache(evaluation._SweepCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(evaluation, "_SweepCache", RecordingCache)
    monkeypatch.setattr(evaluation, "split", recording(
        "split", evaluation.split, lambda ds, fraction, seed: seed))
    basis_fn = "svd_basis" if basis_kind == "svd" else "randomized_basis"
    # A basis is keyed by its training matrix's bytes: an SVD split frees
    # that matrix once its modes exist, so a later split may reuse its id.
    monkeypatch.setattr(evaluation, basis_fn, recording(
        "basis", getattr(evaluation, basis_fn),
        lambda train, r, *seed: (train.tobytes(), r)))
    # Pivots and tails are keyed by the basis or mode matrix they ran on
    # (kept alive, so their ids stay unique), and then by its (split, r).
    monkeypatch.setattr(evaluation, "qr_pivots", recording(
        "pivots", evaluation.qr_pivots, lambda basis, k: basis))
    monkeypatch.setattr(kernels, "sigma_min_tail", recording(
        "tail", kernels.sigma_min_tail, lambda psi, prefix, count: psi))
    monkeypatch.setattr(evaluation, "run_trial", recording(
        "trial", evaluation.run_trial, lambda config, s, c, z, cell, cache: (s, c)))
    coords = {}  # id of a pair -> the coordinates each of its trials read
    get_coords = evaluation._get_coords

    def recording_coords(config, sd, pair):
        got = get_coords(config, sd, pair)
        coords.setdefault(id(pair), []).append(got)
        return got

    monkeypatch.setattr(evaluation, "_get_coords", recording_coords)
    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert sweep_modes_sensors(config, r_grid, p_grid, threads=8) == sequential
    finally:
        sys.setswitchinterval(interval)

    # One cache per split, in split order: its own split and its own pairs.
    assert [list(cache.splits) for cache in caches] == [[s] for s in range(config.n_splits)]
    owner = {}  # id of a pair's basis or of its mode matrix -> (split, r)
    for s, cache in enumerate(caches):
        assert sorted(cache.pairs) == [(s, r) for r in sorted(r_grid)]
        for pair_key, pair in cache.pairs.items():
            owner[id(pair.basis)] = owner[id(pair.basis.psi)] = pair_key
    calls = [
        (name, owner[id(key)] if name in ("pivots", "tail") else key, thread)
        for name, key, thread in calls
    ]
    pairs = {(s, r) for s in range(config.n_splits) for r in r_grid}
    draws = {(s, c) for s in range(config.n_splits) for c in range(config.n_placement_cv)}
    keys = Counter((name, key) for name, key, _ in calls)
    # One split per split index; for SVD sweeps one basis of every mode per
    # split, for randomized ones one basis per (split, r).
    assert Counter(name for name, _ in keys) == Counter({
        "split": config.n_splits,
        "basis": config.n_splits * (1 if basis_kind == "svd" else len(r_grid)),
        "pivots": len(pairs),
        "tail": len(pairs) if oversample == "odeim-e" else 0,
        "trial": len(draws),
    })
    assert all(count == 1 for (name, _), count in keys.items() if name != "trial")
    assert {key for name, key in keys if name == "pivots"} == pairs
    assert {key for name, key in keys if name == "trial"} == draws
    # Each pair's pivots and greedy tail ran once, and all the trials of one
    # (split, cv) draw ran on one thread: the task that owns its draws.
    threads_of = {}
    for name, key, thread in calls:
        if name in ("pivots", "tail", "trial"):
            threads_of.setdefault((name == "trial", key), set()).add(thread)
    assert {key for _, key in threads_of} == pairs | draws
    assert all(len(threads) == 1 for threads in threads_of.values())
    # The first trial of each pair built its test coordinates, once: the
    # trials of all its cv draws, racing to that rank, read that one build.
    pairs_of = [pair for cache in caches for pair in cache.pairs.values()]
    assert sorted(coords) == sorted(map(id, pairs_of))
    for pair in pairs_of:
        assert all(got is pair.coords for got in coords[id(pair)])
