"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import layers
from layers import eig_problem_count

ROOT = Path(__file__).resolve().parents[2]

_TINY = dict(
    n=96,
    m=50,
    n_sv=30,
    n_splits=2,
    n_cv=2,
    n_noise=2,
    r_grid=(4, 8),
    p_grid=(4, 8, 16),
    gate_cells=((4, 4), (4, 8)),
    endpoints=(),
    cpqr_ranks=(4, 8),
    sigma_min_cells=((4, 8),),
    setup_repeats=1,
)


def tiny(name):
    wl = harness.WORKLOADS[name]
    fields = dict(_TINY)
    if wl.is_mf:
        fields.update(r_grid=(), p_grid=(), gate_cells=(), endpoints=(40, 2), steps=5)
    return replace(wl, **fields)


def _traced(wl, seed=3):
    ds = harness.synthesize(harness.SpectrumSpec(1.21e5, -1.1, wl.n_sv), wl.n, wl.m, seed)
    config = harness.make_config(wl, ds, seed)
    result, tracer = layers.traced_sweep(harness.sweep_fn(wl, config))
    return config, result, tracer


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        wl.name: wl.why for wl in harness.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for wl in harness.WORKLOADS.values():
        names = harness.per_layer_names(wl)
        assert per_layer == {name: harness.per_layer_unit(name) for name in names}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_passes_every_check(name, trace):
    wl = tiny(name)
    detail = harness.run_workload(wl, seed=3, seconds=0, trace=trace)
    assert detail["checks"]["failed"] == 0, detail["checks"]["problems"]
    assert detail["checks"]["attempted"] > 0
    expected = harness.per_layer_names(wl) if trace else list(harness.END_TO_END)
    assert list(detail["metrics"]) == expected
    assert all(math.isfinite(m["median"]) for m in detail["metrics"].values())


def test_tracer_restores_layers_and_accounts_for_the_wall():
    originals = [getattr(module, attr) for module, attr, _ in layers.TARGETS]
    _, _, tracer = _traced(tiny("sweep-randomized"))
    assert [getattr(module, attr) for module, attr, _ in layers.TARGETS] == originals
    metrics = layers.sweep_metrics(tracer, threads=1)
    self_total = sum(metrics[f"{span}.self_s"] for span in layers.SPANS)
    [traced_wall] = [end - start for name, start, end, _ in tracer.records if name == layers.SWEEP]
    assert self_total + metrics["evaluation.sweep.unattributed_s"] == pytest.approx(
        traced_wall, rel=1e-9
    )
    assert metrics["basis.svd.calls"] == 0
    assert metrics["kernels.sigma_min_tail.calls"] == 0


def test_tracer_restores_layers_when_the_sweep_raises():
    originals = [getattr(module, attr) for module, attr, _ in layers.TARGETS]

    def broken():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        layers.traced_sweep(broken)
    assert [getattr(module, attr) for module, attr, _ in layers.TARGETS] == originals


def test_eig_problems_match_closed_form():
    wl = tiny("sweep-odeim")
    config, _, tracer = _traced(wl)
    want = config.n_splits * sum(
        eig_problem_count(wl.n, r, p - r) for r in wl.r_grid for p in wl.p_grid if p > r
    )
    assert layers.sweep_metrics(tracer, 1)["kernels.sigma_min_tail.eig_problems"] == want
    assert eig_problem_count(1024, 40, 40) == sum(range(1024 - 40 - 39, 1024 - 40 + 1))


@pytest.mark.parametrize("name", ["sweep-randomized", "mf-budget"])
def test_calls_per_theta_match_closed_form(name):
    wl = tiny(name)
    config, result, tracer = _traced(wl)
    if wl.is_mf:
        cells = [(config.policy.modes_for(c.composition.p), c.composition.p) for c in result]
    else:
        cells = [(c.r, c.p) for c in result]
    calls = len(cells) * config.trials
    thetas = sum(config.n_splits * (config.n_placement_cv if p > r else 1) for r, p in cells)
    got = layers.sweep_metrics(tracer, wl.threads)["linalg.lstsq_minnorm.calls_per_theta"]
    assert got == pytest.approx(calls / thetas, rel=1e-15)


def test_broken_oracle_makes_the_command_fail(monkeypatch, capsys):
    real = harness.run_trial
    monkeypatch.setattr(harness, "WORKLOADS", {"sweep-randomized": tiny("sweep-randomized")})
    monkeypatch.setattr(harness, "run_trial", lambda *a: real(*a) * (1 + 1e-9))
    args = ["--workload", "sweep-randomized", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert harness.main(args) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 2


def test_regime_mismatch_fails_every_composition():
    wl = replace(tiny("mf-budget"), expected_regime="expensive")
    detail = harness.run_workload(wl, seed=3, seconds=0, trace=False)
    assert detail["checks"]["failed"] == detail["checks"]["attempted"] - 3


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-randomized",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
