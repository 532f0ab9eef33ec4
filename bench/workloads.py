"""The benchmark's fixed item sets.

Each item is one `powertree` command line, as the argv list handed to
`powertree.cli.main`. Its key (the argv joined by spaces) indexes the
stored expected value in `expected.json`. The seed only permutes the
order of items within a pass; the set itself never changes.
"""

from __future__ import annotations

CATALOG_DENSE_SPECS = (
    ("cyclic:12",),
    ("cyclic:60",),
    ("cyclic:120",),
    ("cyclic:168",),
    ("cyclic:120", "--reduced"),
    ("dihedral:30",),
    ("dihedral:60",),
    ("dihedral:84",),
    ("quaternion:15",),
    ("quaternion:30",),
    ("quaternion:32",),
    ("quaternion:24", "--reduced"),
    ("alt:4",),
    ("alt:5",),
    ("alt:5", "--reduced"),
    ("sym:4",),
    ("sym:5",),
    ("sym:5", "--reduced"),
    ("elemabelian:3^4",),
    ("elemabelian:5^3",),
    ("semidirect:13:3",),
    ("semidirect:31:5",),
    ("product:(sym:4)x(cyclic:6)",),
    ("product:(alt:4)x(cyclic:5)",),
    ("product:(quaternion:2)x(cyclic:9)",),
    ("product:(cyclic:6)x(cyclic:6)",),
    ("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",),
)

CYCLIC_MAX_N = 420

GRAPH_EXPORT_SPECS = (
    "sym:6",
    "dihedral:500",
    "quaternion:250",
    "product:(sym:5)x(cyclic:12)",
    "alt:7",
    "elemabelian:3^7",
    "sym:7",
)


def _catalog_dense() -> list[list[str]]:
    return [["kappa", *spec, "--format", "json"] for spec in CATALOG_DENSE_SPECS]


def _cyclic_closed_form() -> list[list[str]]:
    items = []
    for n in range(2, CYCLIC_MAX_N + 1):
        for extra in ((), ("--reduced",)):
            items.append(
                ["kappa", f"cyclic:{n}", *extra, "--method", "closed-form",
                 "--format", "json"]
            )
    return items


def _graph_export() -> list[list[str]]:
    return [["graph", spec, "--format", "json"] for spec in GRAPH_EXPORT_SPECS]


WORKLOADS = {
    "catalog-dense": _catalog_dense,
    "cyclic-closed-form": _cyclic_closed_form,
    "graph-export": _graph_export,
}


def item_key(argv: list[str]) -> str:
    return " ".join(argv)


def items(workload: str) -> list[list[str]]:
    """The workload's items in their fixed, unpermuted order."""
    return WORKLOADS[workload]()

