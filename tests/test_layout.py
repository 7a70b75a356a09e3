"""Module boundaries of the package: no module reaches into a sibling's
private names, each submodule is importable under its own name, and each
polynomial model defines its own multiplication."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import lgschubert

PACKAGE_DIR = Path(lgschubert.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _private_sibling_imports(path: Path) -> list[str]:
    """Names starting with "_" imported from a sibling module, at any depth
    (function-local imports included)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").startswith("lgschubert")):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{node.module}.{alias.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    assert _private_sibling_imports(path) == []


def test_submodules_are_modules():
    for path in MODULES:
        if path.stem == "__init__":
            continue
        importlib.import_module(f"lgschubert.{path.stem}")
        assert isinstance(getattr(lgschubert, path.stem), types.ModuleType), path.stem
    import lgschubert.qtilde as qtilde_module

    assert isinstance(qtilde_module, types.ModuleType)


def test_each_polynomial_model_defines_its_own_mul():
    # the benchmark tracer wraps vars(cls)["__mul__"] to time each model apart
    from lgschubert.polyring import EPoly, XPoly

    e_mul, x_mul = vars(EPoly).get("__mul__"), vars(XPoly).get("__mul__")
    assert callable(e_mul) and callable(x_mul)
    assert e_mul is not x_mul
