"""Source layout: the package's modules reach each other only through
public names, so every stage keeps one entry point."""

import ast
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
