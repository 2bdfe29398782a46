"""Acceptance suite.

One test per release criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Expected values come
from independent oracles computed in-line: brute-force cumulative sums,
direct determinants and singular values, and exact rational budget checks.
"""

import time

import numpy as np
import pytest

import sparsesense as ss
from sparsesense import kernels
from sparsesense.cli import main, parse_sweep_csv
from sparsesense.evaluation import pooled_standard_error
from sparsesense.placement import _random_tail, qr_pivots

MASTER = 20260808


def _verdict(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s) {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # JIT compilation must not bill the first timed criterion.
    kernels.warmup()


@pytest.fixture(scope="module")
def desk_medium():
    """b = -1.1 desk-scale set shared by the trend criteria."""
    return ss.synthesize(ss.SpectrumSpec(1.21e5, -1.1, 256), 256, 600, seed=MASTER)


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """Criterion-4 experiment run twice through the CLI (reused by 9)."""
    root = tmp_path_factory.mktemp("acceptance")
    data = str(root / "desk.bin")
    code = main([
        "synth", "--a", "1.21e5", "--b", "-1.1", "--n", "256", "--m", "600",
        "--seed", str(MASTER), "--out", data,
    ])
    assert code == 0
    dirs = []
    for name in ("run1", "run2"):
        out = root / name
        code = main([
            "sweep", "--data", data, "--r-grid", "10,20", "--p-grid", "20,40",
            "--noise-level", "0.02", "--splits", "5", "--cv", "5",
            "--noise-draws", "1", "--seed", str(MASTER), "--out-dir", str(out),
        ])
        assert code == 0
        dirs.append(out)
    return dirs


def test_c01_energy_rank_reproduction():
    start = time.perf_counter()
    expected = {-1.6: 23, -1.1: 355, -0.6: 798}
    ok = True
    details = []
    for exponent, count in expected.items():
        sigmas = ss.power_law_spectrum(ss.SpectrumSpec(1.21e5, exponent, 1024))
        got = ss.energy_rank(sigmas, 0.9)
        # independent brute-force cumulative-sum oracle
        total = float(sum(float(v) for v in sigmas))
        acc, oracle = 0.0, 0
        for v in sigmas:
            acc += float(v)
            oracle += 1
            if acc / total >= 0.9:
                break
        ok = ok and got == count == oracle
        details.append(f"b={exponent}: {got}/{oracle} (want {count})")
    elapsed = time.perf_counter() - start
    _verdict("C01 energy-rank", ok and elapsed < 1.0, elapsed, "; ".join(details))


def test_c02_cpqr_correctness_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER)
    ok = True
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 31))
        cols = int(rng.integers(2, 101))
        V = rng.standard_normal((rows, cols))
        result, Q, R = ss.cpqr_factors(V)
        err = np.linalg.norm(V[:, result.permutation] - Q @ R) / np.linalg.norm(V)
        worst = max(worst, err)
        ok = ok and err <= 1e-10
        k = result.k
        anchor = R[0, 0] ** 2
        for i in range(k):
            lhs = R[i, i] ** 2
            for col in range(i, k):
                rhs = float(np.sum(R[i : col + 1, col] ** 2))
                ok = ok and lhs >= rhs - 1e-9 * max(rhs, anchor)
    elapsed = time.perf_counter() - start
    _verdict(
        "C02 cpqr-suite", ok and elapsed < 10.0, elapsed, f"worst recon err {worst:.2e}"
    )


def test_c03_exact_recovery():
    start = time.perf_counter()
    ds = ss.synthesize(ss.SpectrumSpec(100.0, -0.5, 10), 200, 120, seed=MASTER)
    sd = ss.split(ds, 0.8, seed=MASTER + 1)
    basis = ss.svd_basis(sd.train, 10)
    plan = qr_pivots(basis, 10)
    theta = basis.psi[plan.locations]
    cond = ss.condition_number(theta)
    Y = ss.measure(sd.test, plan)
    err = ss.fractional_error(sd.test, ss.reconstruct(basis, plan, Y))
    elapsed = time.perf_counter() - start
    ok = np.isfinite(cond) and err <= 1e-8 and elapsed < 5.0
    _verdict("C03 exact-recovery", ok, elapsed, f"err {err:.2e}, cond {cond:.1f}")


def test_c04_oversampling_stabilization_trend(sweep_dirs):
    start = time.perf_counter()
    rows = parse_sweep_csv((sweep_dirs[0] / "sweep.csv").read_text())
    cells = {
        (row["r"], row["p"]): ss.CellResult(
            row["r"], row["p"], row["mean_error"], row["std_error"], row["trials"]
        )
        for row in rows
    }
    over, square, fewer = cells[(20, 40)], cells[(20, 20)], cells[(10, 20)]
    gap1 = (square.mean_error - over.mean_error) / pooled_standard_error(square, over)
    gap2 = (square.mean_error - fewer.mean_error) / pooled_standard_error(square, fewer)
    ok = all(c.trials == 25 for c in cells.values()) and gap1 >= 2.0 and gap2 >= 2.0
    elapsed = time.perf_counter() - start
    _verdict(
        "C04 oversampling-trend", ok, elapsed,
        f"p=2r beats p=r by {gap1:.1f} SE; r=p beats r=p/2 at fixed p by {gap2:.1f} SE",
    )


def test_c05_randomized_basis_peak(desk_medium):
    start = time.perf_counter()
    config = ss.ExperimentConfig(
        dataset=desk_medium,
        basis_kind="randomized",
        level_cheap=0.02,
        level_exp=0.02,
        n_splits=5,
        n_placement_cv=5,
        n_noise=1,
        master_seed=MASTER,
    )
    cells = {c.p: c for c in ss.sweep_modes_sensors(config, [40], [20, 40, 80])}
    peak, under, over = cells[40], cells[20], cells[80]
    gap_under = (peak.mean_error - under.mean_error) / pooled_standard_error(peak, under)
    gap_over = (peak.mean_error - over.mean_error) / pooled_standard_error(peak, over)
    ok = gap_under >= 2.0 and gap_over >= 2.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(
        "C05 randomized-peak", ok, elapsed,
        f"peak at p=r by {gap_under:.1f} SE (vs p=r/2) and {gap_over:.1f} SE (vs p=2r)",
    )


def test_c06_sigma_min_oversampling_quality_and_cost():
    start = time.perf_counter()
    smin = lambda A: float(np.linalg.svd(A, compute_uv=False)[-1])
    s_random, s_greedy = [], []
    t_random = t_greedy = 0.0
    for t in range(20):
        X = ss.gaussian_matrix(256, 300, seed=5000 + t)
        basis = ss.svd_basis(X, 16)
        prefix = qr_pivots(basis, 16).locations
        t0 = time.perf_counter()
        tail_r = _random_tail(256, prefix, 16, seed=t)
        t_random += time.perf_counter() - t0
        t0 = time.perf_counter()
        tail_g = kernels.sigma_min_tail(basis.psi, prefix, 16)
        t_greedy += time.perf_counter() - t0
        s_random.append(smin(basis.psi[np.concatenate([prefix, tail_r])]))
        s_greedy.append(smin(basis.psi[np.concatenate([prefix, tail_g])]))
    med_g, med_r = float(np.median(s_greedy)), float(np.median(s_random))
    ratio = t_greedy / t_random
    elapsed = time.perf_counter() - start
    ok = med_g >= med_r and ratio >= 10.0 and elapsed < 180.0
    _verdict(
        "C06 sigma-min-oversampling", ok, elapsed,
        f"median smin {med_g:.4f} vs {med_r:.4f}; tail cost ratio {ratio:.0f}x",
    )


def test_c07_multifidelity_regimes():
    start = time.perf_counter()
    budget = ss.budget_from_endpoints(100, 2, 1.0)
    cases = [
        # (exponent, level_cheap, level_exp, expected regime)
        (-0.6, 0.02, 0.01, "cheap"),
        (-1.6, 0.40, 0.01, "expensive"),
    ]
    got = []
    ok = True
    for offset, (exponent, level_cheap, level_exp, expected) in enumerate(cases):
        ds = ss.synthesize(
            ss.SpectrumSpec(1.21e5, exponent, 256), 256, 600, seed=MASTER + 1 + offset
        )
        config = ss.ExperimentConfig(
            dataset=ds,
            level_cheap=level_cheap,
            level_exp=level_exp,
            budget=budget,
            composition_steps=3,
            n_splits=5,
            n_placement_cv=5,
            n_noise=3,
            master_seed=MASTER,
        )
        results = ss.mf_sweep(config)
        regime = ss.classify_regime(
            results[0].mean_error, results[-1].mean_error, band=0.02
        )
        got.append(f"b={exponent}: {regime} (want {expected})")
        ok = ok and regime == expected
        ok = ok and all(r.trials == 75 for r in results)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _verdict("C07 multifidelity-regimes", ok, elapsed, "; ".join(got))


def test_c08_budget_feasibility_exact():
    start = time.perf_counter()
    checked = 0
    ok = True
    endpoint_rows = [(400, 2, 1.0), (400, 3, 1.0), (4, 2, 1.0), (100, 2, 1.0),
                     (97, 13, 0.3), (300, 7, 1.7), (1000, 999, 0.1)]
    for p_cheap_max, p_exp_max, cost_cheap in endpoint_rows:
        budget = ss.budget_from_endpoints(p_cheap_max, p_exp_max, cost_cheap)
        for steps in (2, 3, 11, 41):
            comps = ss.enumerate_compositions(budget, steps)
            for comp in comps:
                checked += 1
                ok = ok and budget.is_feasible(comp.p_cheap, comp.p_exp)
            ok = ok and (comps[0].p_cheap, comps[0].p_exp) == (p_cheap_max, 0)
            ok = ok and (comps[-1].p_cheap, comps[-1].p_exp) == (0, p_exp_max)
    elapsed = time.perf_counter() - start
    _verdict("C08 budget-feasibility", ok, elapsed, f"{checked} compositions exact")


def test_c09_determinism_byte_identical(sweep_dirs):
    start = time.perf_counter()
    first = (sweep_dirs[0] / "sweep.csv").read_bytes()
    second = (sweep_dirs[1] / "sweep.csv").read_bytes()
    ok = first == second and len(first) > 0
    elapsed = time.perf_counter() - start
    _verdict("C09 determinism", ok, elapsed, f"{len(first)} bytes identical")


def test_c10_power_law_fit_round_trip():
    start = time.perf_counter()
    spec = ss.SpectrumSpec(1.21e5, -1.14, 1024)
    a, b = ss.fit_power_law(ss.power_law_spectrum(spec))
    err_a = abs(a - 1.21e5) / 1.21e5
    err_b = abs(b - (-1.14))
    elapsed = time.perf_counter() - start
    ok = err_a <= 1e-9 and err_b <= 1e-9 and elapsed < 1.0
    _verdict("C10 power-law-fit", ok, elapsed, f"da={err_a:.1e}, db={err_b:.1e}")
