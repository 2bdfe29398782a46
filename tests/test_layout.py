"""Source layout: the package's modules reach each other only through
public names, so every stage keeps one entry point; importing the package
loads only numpy and the standard library; and every name the benchmark in
``perfbench/`` traces, imports or calls still exists."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sparsesense"


def _private_imports(source: str) -> list[str]:
    """Underscore names a module imports from the sparsesense package
    (dunder names such as ``__version__`` are public)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sparsesense":
            continue
        found += [
            alias.name
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")
        ]
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .basis import _modes, svd_basis", ["_modes"]),
        ("from sparsesense.placement import _random_tail", ["_random_tail"]),
        ("def f():\n    from . import _kernel\n", ["_kernel"]),
        ("from . import __version__, kernels", []),
        ("from numpy.linalg import _umath_linalg", []),
    ],
)
def test_private_import_scan(source, expected):
    assert _private_imports(source) == expected


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {
        path.name: names
        for path in modules
        if (names := _private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_importing_the_package_loads_only_numpy_and_the_standard_library():
    # Every CLI run and library user pays this import before any work, so
    # the command-line front end and the chart writer stay out of it.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import sparsesense\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(run.stdout)
    assert "sparsesense" in loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"numpy", "sparsesense"}
    assert not {"sparsesense.cli", "sparsesense.svg"} & set(loaded)


# ---------------------------------------------------------------------------
# the benchmark's contract: what perfbench/ reaches into, read from its source
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_the_benchmark_traces_exists():
    targets = _bench_module("layers").TARGETS
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _bench_references() -> set[tuple[str, str]]:
    """(module, name) pairs the benchmark imports from the package or reads
    as ``kernels.<name>`` / ``evaluation.<name>``."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparsesense"):
                found |= {(node.module, alias.name) for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("kernels", "evaluation")
            ):
                found.add((f"sparsesense.{node.value.id}", node.attr))
    return found


def test_every_name_the_benchmark_reads_exists():
    found = _bench_references()
    kernel_names = {"cpqr_select", "warmup", "backend_name", "NUMBA_AVAILABLE"}
    assert {("sparsesense.kernels", name) for name in kernel_names} <= found
    assert ("sparsesense.evaluation", "run_trial") in found
    for module, name in sorted(found):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_the_benchmark_oracle_keeps_its_call_shape():
    from sparsesense import evaluation
    from sparsesense.dataset import SpectrumSpec, synthesize

    params = inspect.signature(evaluation.run_trial).parameters
    assert list(params) == ["config", "split_idx", "cv_idx", "noise_idx", "cell", "cache"]
    assert params["cache"].default is None
    config = evaluation.ExperimentConfig(
        dataset=synthesize(SpectrumSpec(10.0, -0.7, 4), 12, 10, seed=0),
        n_splits=1,
        n_placement_cv=1,
        n_noise=1,
    )
    cache = evaluation._SweepCache()
    error = evaluation.run_trial(config, 0, 0, 0, (3, 5), cache)
    assert error == evaluation.run_trial(config, 0, 0, 0, (3, 5))
