"""The bench scripts reach into the package by name.

bench/child.py patches functions by name for its per-layer trace; a target
that is renamed or deleted is only listed as unpatched there, and its layer
then reads 0. bench/make_expected.py imports package names and reads
`closedform.kappa_*` to cross-check the stored answers. These tests keep
every such name resolving in the package, and run the generator's own
count on a few catalog-dense items, which also reads group attributes.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHILD = BENCH / "child.py"
GENERATOR = BENCH / "make_expected.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _load(CHILD, "bench_child").PATCHES


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


GENERATOR_ITEMS = [
    ("cyclic:60",),
    ("cyclic:120", "--reduced"),
    ("dihedral:30",),
    ("quaternion:24", "--reduced"),
    ("alt:4",),
    ("sym:4",),
    ("sym:5", "--reduced"),
    ("semidirect:13:3",),
    ("product:(cyclic:6)x(cyclic:6)",),
    ("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",),
]


@pytest.fixture(scope="module")
def generator():
    return _load(GENERATOR, "bench_make_expected")


@pytest.mark.parametrize("item", GENERATOR_ITEMS, ids=" ".join)
def test_generator_counts_match_the_package(generator, item):
    from powertree.groups import build
    from powertree.specparse import parse_group_spec
    from powertree.treecount import quotient_kappa

    assert item in _load(BENCH / "workloads.py", "bench_workloads").CATALOG_DENSE_SPECS
    spec, reduced = parse_group_spec(item[0]), "--reduced" in item
    group = build(spec)
    expected = quotient_kappa(group.poset, reduced).value
    assert generator.quotient_kappa(*generator.twin_classes(group, reduced)) == expected
    assert generator.package_kappa(spec, reduced) == expected
