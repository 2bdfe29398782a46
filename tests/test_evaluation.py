"""Reconstruction, error metrics, trial seeding, sweeps, classification."""

import numpy as np
import pytest

from sparsesense import kernels
from sparsesense.basis import Basis, svd_basis
from sparsesense.dataset import SpectrumSpec, split, synthesize
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
from sparsesense.multifidelity import Composition, budget_from_endpoints
from sparsesense.placement import PlacementPolicy, SensorPlan, qr_pivots


def _rank_limited_dataset(n=60, m=40, rank=6, seed=0):
    return synthesize(SpectrumSpec(10.0, -0.7, rank), n, m, seed=seed)


# ---------------------------------------------------------------------------
# reconstruct / fractional_error
# ---------------------------------------------------------------------------


def test_reconstruct_identity_basis_full_sensing():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((4, 6))
    basis = Basis(np.eye(4), "svd", 4)
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
    assert results[0].composition == Composition(10, 0, "exp-first")
    assert results[-1].composition == Composition(0, 3, "exp-first")
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
    assert first[1].composition.assignment == "exp-first"
    assert last[1].composition.assignment == "exp-last"
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


def test_config_digest_tracks_content():
    ds = _rank_limited_dataset()
    a = ExperimentConfig(dataset=ds, master_seed=1)
    b = ExperimentConfig(dataset=ds, master_seed=1)
    c = ExperimentConfig(dataset=ds, master_seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


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


def test_sigma_min_mf_sweep_reuses_tails_and_matches_fresh_trials(monkeypatch):
    ds = _rank_limited_dataset(n=40, m=30, rank=8, seed=14)
    config = ExperimentConfig(
        dataset=ds,
        policy=PlacementPolicy(small_p_threshold=2, oversample="odeim-e"),
        level_cheap=0.02,
        level_exp=0.01,
        budget=budget_from_endpoints(12, 4, 1.0),
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
