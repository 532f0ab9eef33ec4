"""The bench scripts reach into the package by name.

bench/child.py patches functions by name for its per-layer trace; a target
that is renamed or deleted is only listed as unpatched there, and its layer
then reads 0. bench/make_expected.py imports package names and reads
`closedform.kappa_*` to cross-check the stored answers. These tests keep
every such name resolving in the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHILD = BENCH / "child.py"
GENERATOR = BENCH / "make_expected.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.PATCHES


def _generator_names():
    """(module, name) for each package import and closedform read of the generator."""
    names = set()
    for node in ast.walk(ast.parse(GENERATOR.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("powertree"):
            names.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "closedform"
        ):
            names.add(("powertree.closedform", node.attr))
    return sorted(names)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _patches()])
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", _generator_names())
def test_generator_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
