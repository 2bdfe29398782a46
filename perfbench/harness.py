"""End-to-end and per-layer benchmark of the Monte-Carlo sweep engine.

Each workload drives a public entry point (``sweep_modes_sensors`` or
``mf_sweep``) on a dataset generated from the workload seed, written with
``save_matrix`` and loaded back with ``load_matrix``. The load is a closed
loop: one process, one sweep at a time, repeated for the run length.

Untraced runs report the end-to-end metrics; traced runs wrap every layer
boundary (see ``layers.py``) and report per-layer metrics plus the kernel
micro section. Both check the outputs: every sweep must repeat the first one
exactly, report the configured trial count, and agree with the single-trial
oracle ``run_trial`` to rel 1e-12 on selected cells; ``mf`` sweeps must also
classify to the expected regime. BLAS thread counts are recorded, never set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sparsesense
from sparsesense import (
    ExperimentConfig,
    PlacementPolicy,
    SpectrumSpec,
    budget_from_endpoints,
    classify_composition_sweep,
    kernels,
    load_matrix,
    mf_sweep,
    save_matrix,
    sweep_modes_sensors,
    synthesize,
)
from sparsesense.evaluation import _SweepCache, run_trial

import layers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ORACLE_RTOL = 1e-12

# The setup_s child: what every CLI run pays before its first trial. It prints
# the clock when done; perf_counter is the system-wide monotonic clock, so the
# parent's start time is comparable and process teardown stays out.
SETUP_CODE = (
    "import sys, time\n"
    "import sparsesense\n"
    "from sparsesense import kernels, load_matrix\n"
    "load_matrix(sys.argv[1])\n"
    "kernels.warmup()\n"
    "print(time.perf_counter())\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    basis_kind: str
    oversample: str
    n_splits: int
    threads: int = 1
    n_cv: int = 5
    n_noise: int = 5
    # Dataset: synthesize(SpectrumSpec(1.21e5, -1.1, n_sv), n, m, seed).
    n: int = 1024
    m: int = 600
    n_sv: int = 512
    # sweep_modes_sensors grid; empty for an mf_sweep workload.
    r_grid: tuple = ()
    p_grid: tuple = ()
    # Oracle cells: one QR-only (p <= r) and one oversampled (p > r).
    gate_cells: tuple = ()
    # mf_sweep budget: budget_from_endpoints(p_cheap_max, p_exp_max, 1.0).
    endpoints: tuple = ()
    steps: int = 11
    expected_regime: str = "cheap"
    # Kernel micro section shapes (traced runs).
    cpqr_ranks: tuple = (10, 20, 40, 200)
    sigma_min_cells: tuple = ((10, 20), (10, 40), (10, 80), (20, 40), (20, 80), (40, 80))
    setup_repeats: int = 7

    @property
    def is_mf(self) -> bool:
        return bool(self.endpoints)


_GRID = dict(r_grid=(10, 20, 40), p_grid=(10, 20, 40, 80), gate_cells=((10, 10), (10, 20)))

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "sweep-randomized",
            "small Theta, per-trial overhead: error, noise and solve share the time; "
            "bypasses the split SVD and the sigma_min scan",
            "randomized",
            "random",
            n_splits=2,
            **_GRID,
        ),
        Workload(
            "sweep-odeim",
            "odeim-e oversampling: the greedy sigma_min scan takes almost all the time",
            "svd",
            "odeim-e",
            n_splits=1,
            **_GRID,
        ),
        Workload(
            "mf-budget",
            "large Theta (p to 400, r to 200): solve and CPQR at r = 200, "
            "and the only workload on the 2-thread trial pool",
            "svd",
            "random",
            n_splits=1,
            threads=2,
            endpoints=(400, 4),
        ),
    )
}

END_TO_END = {
    "trials_per_s": "1/s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_names(wl: Workload) -> list[str]:
    names = []
    for span in layers.SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [
        f"{layers.SIGMA_MIN}.eig_problems",
        f"{layers.SOLVE}.calls_per_theta",
        f"{layers.TRIAL}.p50_s",
        f"{layers.TRIAL}.p99_s",
        f"{layers.SWEEP}.unattributed_s",
        "evaluation.pool.busy_frac",
        "trace.overhead_s",
    ]
    return names + layers.micro_names(wl.cpqr_ranks, wl.sigma_min_cells)


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".eig_problems")):
        return "count"
    if name.endswith((".calls_per_theta", ".busy_frac")):
        return "ratio"
    if name.endswith(".flops"):
        return "flop"
    return "s"


# ---------------------------------------------------------------------------
# Inputs and the program under test
# ---------------------------------------------------------------------------


def make_dataset_file(wl: Workload, seed: int, directory: Path) -> Path:
    ds = synthesize(SpectrumSpec(1.21e5, -1.1, wl.n_sv), n=wl.n, m=wl.m, seed=seed)
    path = directory / "data.bin"
    save_matrix(ds, str(path))
    return path


def make_config(wl: Workload, dataset, seed: int) -> ExperimentConfig:
    extra = {}
    if wl.is_mf:
        extra = dict(
            level_exp=0.01,
            budget=budget_from_endpoints(*wl.endpoints, 1.0),
            composition_steps=wl.steps,
            assignment="exp-first",
        )
    return ExperimentConfig(
        dataset,
        basis_kind=wl.basis_kind,
        policy=PlacementPolicy(oversample=wl.oversample),
        level_cheap=0.02,
        train_fraction=0.8,
        n_splits=wl.n_splits,
        n_placement_cv=wl.n_cv,
        n_noise=wl.n_noise,
        master_seed=seed,
        **extra,
    )


def sweep_fn(wl: Workload, config: ExperimentConfig):
    if wl.is_mf:
        return lambda: mf_sweep(config, threads=wl.threads)
    return lambda: sweep_modes_sensors(config, wl.r_grid, wl.p_grid, threads=wl.threads)


def setup_times(data_path: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing sparsesense, loading the
    data file and warming the kernels. One untimed run fills bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE, str(data_path)]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        child = subprocess.run(
            cmd, env=env, check=True, timeout=60, capture_output=True, text=True
        )
        if i:
            times.append(float(child.stdout) - start)
    return times


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


class Checks:
    """Cells and compositions checked, and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cells(self, count: int, bad: list[str]) -> None:
        self.attempted += count
        self.failed += len(bad)
        self.problems += bad


def check_sweep(wl, config, result, first, checks: Checks) -> None:
    """Trial counts, exact repeat of the first sweep, and the mf regime."""
    bad = []
    for i, cell in enumerate(result):
        label = _label(cell)
        if cell.trials != config.trials:
            bad.append(f"{label}: {cell.trials} trials, configured {config.trials}")
        elif first is not None and cell != first[i]:
            bad.append(f"{label}: differs from the first sweep of this run")
    if wl.is_mf and not bad:
        regime = classify_composition_sweep([c.mean_error for c in result])
        if regime != wl.expected_regime:
            bad = [f"regime {regime!r}, expected {wl.expected_regime!r}"] * len(result)
    checks.cells(len(result), bad)


def _label(cell) -> str:
    if hasattr(cell, "composition"):
        c = cell.composition
        return f"composition ({c.p_cheap} cheap, {c.p_exp} expensive)"
    return f"cell (r={cell.r}, p={cell.p})"


def oracle_cells(wl: Workload, result):
    """(sweep result, cell argument for run_trial) pairs the oracle recomputes."""
    if wl.is_mf:
        picks = sorted({0, len(result) // 2, len(result) - 1})
        return [(result[i], result[i].composition) for i in picks]
    by_cell = {(c.r, c.p): c for c in result}
    return [(by_cell[cell], cell) for cell in wl.gate_cells]


def check_oracle(wl, config, result, checks: Checks) -> None:
    """Recompute selected cells trial by trial with one shared cache."""
    cache = _SweepCache()
    indices = list(
        itertools.product(
            range(config.n_splits), range(config.n_placement_cv), range(config.n_noise)
        )
    )
    bad = []
    picks = oracle_cells(wl, result)
    for got, cell in picks:
        errors = [run_trial(config, s, c, z, cell, cache) for s, c, z in indices]
        want = float(np.mean(errors))
        if not abs(got.mean_error - want) <= ORACLE_RTOL * abs(want):
            bad.append(f"{_label(got)}: sweep mean {got.mean_error!r}, run_trial mean {want!r}")
    checks.cells(len(picks), bad)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def repeat_sweeps(wl, config, run, seconds, min_runs, first, checks):
    """Run `run` (returning (result, extra)) at least min_runs times, then while
    another typical run still fits in `seconds`; returns walls and extras."""
    walls, extras = [], []
    start = time.perf_counter()
    while len(walls) < min_runs or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t0 = time.perf_counter()
        result, extra = run()
        walls.append(time.perf_counter() - t0)
        extras.append(extra)
        check_sweep(wl, config, result, first[0] if first else None, checks)
        if not first:
            first.append(result)
    return walls, extras


def summary(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "p25": q[0], "p75": q[2], "n": len(values)}


def run_record(wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "sparsesense": sparsesense.__version__,
        "backend": kernels.backend_name(),
        "numba_available": kernels.NUMBA_AVAILABLE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pool_threads": wl.threads,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the detail document (metrics, checks, record)."""
    workdir = Path(tempfile.mkdtemp(dir=_work_dir()))
    try:
        data_path = make_dataset_file(wl, seed, workdir)
        dataset = load_matrix(str(data_path))
        kernels.warmup()
        config = make_config(wl, dataset, seed)
        sweep = sweep_fn(wl, config)
        checks = Checks()
        first: list = []
        detail = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if trace:
            metrics = _traced(wl, config, sweep, seconds, first, checks, dataset.X)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = _untraced(wl, config, sweep, seconds, first, checks, data_path)
            units = END_TO_END
        check_oracle(wl, config, first[0], checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["metrics"] = {
        name: dict(stats, unit=units[name]) for name, stats in metrics.items()
    }
    detail["trials_per_sweep"] = len(first[0]) * config.trials
    detail["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / checks.attempted,
        "problems": checks.problems[:20],
    }
    if wl.is_mf:
        detail["regime"] = classify_composition_sweep([c.mean_error for c in first[0]])
    detail["record"] = run_record(wl)
    return detail


def _untraced(wl, config, sweep, seconds, first, checks, data_path) -> dict:
    walls, _ = repeat_sweeps(
        wl, config, lambda: (sweep(), None), seconds, 3, first, checks
    )
    trials = len(first[0]) * config.trials
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "trials_per_s": summary(trials / w for w in walls),
        "sweep_s": summary(walls),
        "setup_s": summary(setup_times(data_path, wl.setup_repeats)),
        "peak_rss_mb": summary([peak_mb]),
    }


def _traced(wl, config, sweep, seconds, first, checks, X) -> dict:
    # Untraced and traced sweeps share most of the run; the kernel micro
    # section takes the rest (about 8 s at the full shapes).
    plain, _ = repeat_sweeps(
        wl, config, lambda: (sweep(), None), 0.4 * seconds, 2, first, checks
    )
    traced, per_sweep = repeat_sweeps(
        wl,
        config,
        lambda: _traced_once(sweep, wl.threads),
        0.4 * seconds,
        2,
        first,
        checks,
    )
    metrics = {name: summary(m[name] for m in per_sweep) for name in per_sweep[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = summary([overhead])
    for name, value in layers.kernel_micro(X, wl.cpqr_ranks, wl.sigma_min_cells).items():
        metrics[name] = summary([value])
    return metrics


def _traced_once(sweep, threads):
    result, tracer = layers.traced_sweep(sweep)
    return result, layers.sweep_metrics(tracer, threads)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def result_line(detail: dict) -> dict:
    checks = detail["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": m["median"], "unit": m["unit"]}
            for name, m in detail["metrics"].items()
        },
    }


def print_report(detail: dict) -> None:
    record = " ".join(f"{k}={v}" for k, v in detail["record"].items())
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}")
    print(f"# record: {record}")
    print(f"# trials per sweep: {detail['trials_per_sweep']}")
    print(f"{'metric':<44} {'median':>14} {'p25':>14} {'p75':>14} {'n':>5}  unit")
    for name, m in detail["metrics"].items():
        print(
            f"{name:<44} {m['median']:>14.6g} {m['p25']:>14.6g} "
            f"{m['p75']:>14.6g} {m['n']:>5}  {m['unit']}"
        )
    checks = detail["checks"]
    print(
        f"{'failed_frac':<44} {checks['failed_frac']:>14.6g} "
        f"({checks['failed']} of {checks['attempted']} cells failed a check)"
    )
    for problem in checks["problems"]:
        print(f"# check failed: {problem}", file=sys.stderr)


def _run_all(args) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    docs = {"end_to_end": {}, "per_layer": {}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        for name in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = Path(tmp) / f"{name}.{trace}.json"
                cmd = [
                    sys.executable, str(Path(__file__).with_name("run.py")),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(out),
                ]
                subprocess.run(cmd, timeout=900)
                if not out.is_file():
                    combined["correct"] = False
                    continue
                docs[key][name] = json.loads(out.read_text())
                line = result_line(docs[key][name])
                combined["correct"] &= line["correct"]
                combined["attempted"] += line["attempted"]
                combined["failed"] += line["failed"]
                for metric, value in line["metrics"].items():
                    combined["metrics"][f"{name}.{metric}"] = value
    if args.out:
        Path(args.out).write_text(json.dumps(docs, indent=1) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run document (JSON) here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print_report(detail)
    line = result_line(detail)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
