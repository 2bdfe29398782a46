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


def _writes_outside(source: str, writer: str) -> list[str]:
    """Calls outside function ``writer`` that open a file for writing or
    append, or rename one with ``os.replace``/``os.rename``."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside or node.name == writer
        if isinstance(node, ast.Call) and not inside:
            name = ast.unparse(node.func)
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
            if name in ("os.replace", "os.rename") or (
                name == "open"
                and mode is not None
                and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
            ):
                found.append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def _write_atomic(p):\n    open(p, 'wb')\n    os.replace(p, p)\n", []),
        ("def f(p):\n    open(p, 'r')\n    open(p, mode='rb')\n    open(p)\n", []),
        ("def f(p):\n    open(p, 'a')\n", ["open"]),
        ("def f(p, m):\n    open(p, mode=m)\n", ["open"]),
        ("def f(p):\n    os.replace(p, p + '.x')\n", ["os.replace"]),
        ("os.rename('a', 'b')\n", ["os.rename"]),
    ],
)
def test_write_scan(source, expected):
    assert _writes_outside(source, "_write_atomic") == expected


def test_the_cli_writes_files_only_through_its_atomic_writer():
    # Every output and the manifest go through one temp-file-and-rename path.
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert "def _write_atomic(" in source
    assert _writes_outside(source, "_write_atomic") == []


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


# ---------------------------------------------------------------------------
# the public surface and the README's use of it
# ---------------------------------------------------------------------------


def test_every_exported_name_is_listed_once_and_resolves():
    import sparsesense

    names = sparsesense.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(sparsesense, name), name


def test_the_readme_library_sketch_runs():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    _, _, after = readme.partition("## Library sketch\n")
    assert after, "README has no Library sketch section"
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
