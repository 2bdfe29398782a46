"""The results pin: exact means and stds of small seeded sweeps.

``tests/results_pin.json`` holds, for each configuration below, every cell's
mean and std error as ``float.hex``, with the platform record (numpy, BLAS,
machine) they were computed on. ``tests/test_results_pin.py`` recomputes
them: on the recorded platform they must be ``==``, elsewhere within
``MEAN_RTOL`` / ``STD_RTOL``. Run from the repository root:

    PYTHONPATH=src python tests/results_pin.py           # rewrite the pin
    PYTHONPATH=src python tests/results_pin.py --check   # compare only

Both print, per configuration, the largest relative change of the means and
of the stds against the pin on file. ``--check`` writes nothing and exits 1
when a change exceeds the tolerances. Both fail when threads 1 and 2 give
different results. A change that moves result bytes rewrites the pin and
records the printed lines.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from sparsesense.dataset import SpectrumSpec, synthesize
from sparsesense.evaluation import ExperimentConfig, mf_sweep, sweep_modes_sensors
from sparsesense.kernels import blas_record
from sparsesense.multifidelity import budget_from_endpoints
from sparsesense.placement import PlacementPolicy

PIN = Path(__file__).with_name("results_pin.json")
MEAN_RTOL = 1e-12
STD_RTOL = 1e-10

_R_GRID, _P_GRID = [4, 8], [6, 12, 20]

# name -> (basis kind, oversampling, assignment or None for an (r, p) sweep)
CONFIGS = {
    "sweep-svd-random": ("svd", "random", None),
    "sweep-svd-odeim-e": ("svd", "odeim-e", None),
    "sweep-randomized-random": ("randomized", "random", None),
    "sweep-randomized-odeim-e": ("randomized", "odeim-e", None),
    "mf-exp-first": ("svd", "random", "exp-first"),
    "mf-exp-last": ("svd", "random", "exp-last"),
}


def platform_record() -> dict[str, str]:
    return {
        "numpy": np.__version__,
        "blas": blas_record()["blas"],
        "machine": platform.machine(),
    }


def compute(threads: int) -> dict[str, list[dict]]:
    """Every configuration's cells: a label, and mean and std as float.hex."""
    dataset = synthesize(SpectrumSpec(10.0, -0.8, 40), 64, 50, seed=5)
    out = {}
    for name, (basis_kind, oversample, assignment) in CONFIGS.items():
        config = ExperimentConfig(
            dataset,
            basis_kind=basis_kind,
            policy=PlacementPolicy(oversample=oversample),
            assignment=assignment or "exp-first",
            budget=budget_from_endpoints(20, 8, 1.0) if assignment else None,
            composition_steps=5,
            n_splits=3,
            n_placement_cv=2,
            n_noise=2,
            master_seed=11,
        )
        if assignment is None:
            results = sweep_modes_sensors(config, _R_GRID, _P_GRID, threads=threads)
            labels = [f"r={res.r} p={res.p}" for res in results]
        else:
            results = mf_sweep(config, threads=threads)
            labels = [
                f"cheap={res.composition.p_cheap} exp={res.composition.p_exp}"
                for res in results
            ]
        out[name] = [
            {"cell": label, "mean": res.mean_error.hex(), "std": res.std_error.hex()}
            for label, res in zip(labels, results)
        ]
    return out


def load() -> dict:
    return json.loads(PIN.read_text(encoding="utf-8"))


def _rel(new: float, old: float) -> float:
    if new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def drift(new: dict, old: dict) -> dict[str, tuple[float, float]]:
    """Per configuration, the largest relative change of the means and of
    the stds from ``old`` to ``new``; inf when the cells differ."""
    out = {}
    for name in CONFIGS:
        a, b = new.get(name, []), old.get(name, [])
        if not a or [c["cell"] for c in a] != [c["cell"] for c in b]:
            out[name] = (float("inf"), float("inf"))
            continue
        out[name] = tuple(
            max(_rel(float.fromhex(x[key]), float.fromhex(y[key])) for x, y in zip(a, b))
            for key in ("mean", "std")
        )
    return out


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 64
    results = compute(threads=1)
    if compute(threads=2) != results:
        print("results differ between threads 1 and 2", file=sys.stderr)
        return 1
    pin = load() if PIN.is_file() else {"platform": {}, "configs": {}}
    here = platform_record()
    print(f"pin platform: {pin['platform']}")
    print(f"this platform: {here}")
    worst = 0.0
    for name, (means, stds) in drift(results, pin["configs"]).items():
        print(f"{name}: largest relative change of means {means:.2e}, of stds {stds:.2e}")
        worst = max(worst, means / MEAN_RTOL, stds / STD_RTOL)
    if check:
        return 1 if worst > 1.0 else 0
    PIN.write_text(
        json.dumps({"platform": here, "configs": results}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {PIN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
