"""The public name lists of the package and its modules, and the names
the modules take from each other."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bck_sim

MODULES = ["bck_sim"] + [f"bck_sim.{info.name}" for info in pkgutil.iter_modules(bck_sim.__path__)]
SOURCES = sorted(Path(bck_sim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr)


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bck_sim"):
                continue
            found += [
                f"{path.stem} <- {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


# Kept for the ``audit`` command planned in ROADMAP item 5, which will call them.
AUDIT_NAMES = (
    "heat_identity_instantiations",
    "factorization_residual",
    "max_mode_real_part",
    "oscillation_ratio",
    "weighted_norm",
    "relative_bound_report",
)


def _named(paths):
    """Every name a ``Name`` or ``Attribute`` node of ``paths`` mentions;
    strings (docstrings, ``__all__``) do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    """Each public top-level function of a module is named by code in the
    package or in a benchmark harness module (``perfbench/*.py``); the
    tests alone do not keep a function alive."""
    harness = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    named = _named(SOURCES + harness)
    unreached = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        if path.stem != "__init__"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in named
        and node.name not in AUDIT_NAMES
    ]
    assert unreached == []


def test_no_source_line_is_over_100_columns():
    long_lines = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
