"""Golden table of tree counts for every group of order at most 15.

The factored literals are the reference values; compute_table re-derives
both columns for each row with the determinant route and reports per-cell
agreement. M is the nonabelian order-12 group with a cyclic subgroup of
order 4 and normal Z_3, which is the dicyclic group Q_12; the tests confirm
that identification by matching both of its columns.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DiscrepancyDetected
from .groups import build
from .specparse import parse_group_spec
from .numutil import parse_factored
from .powergraph import power_graph, reduced_power_graph
from .treecount import temperley_kappa


class GoldenRow(NamedTuple):
    order: int
    name: str
    spec: str
    kappa: str
    kappa_reduced: str | None  # None renders "-": undefined for the trivial group


GOLDEN_ROWS: tuple[GoldenRow, ...] = (
    GoldenRow(1, "1", "cyclic:1", "1", None),
    GoldenRow(2, "Z_2", "cyclic:2", "1", "1"),
    GoldenRow(3, "Z_3", "cyclic:3", "3", "1"),
    GoldenRow(4, "Z_4", "cyclic:4", "2^4", "3"),
    GoldenRow(4, "Z_2×Z_2", "elemabelian:2^2", "1", "0"),
    GoldenRow(5, "Z_5", "cyclic:5", "5^3", "2^4"),
    GoldenRow(6, "Z_6", "cyclic:6", "2^2*3^3*5", "2^3*5"),
    GoldenRow(6, "S_3", "sym:3", "3", "0"),
    GoldenRow(7, "Z_7", "cyclic:7", "7^5", "2^4*3^4"),
    GoldenRow(8, "Z_8", "cyclic:8", "2^18", "7^5"),
    GoldenRow(8, "Z_4×Z_2", "product:(cyclic:4)x(cyclic:2)", "2^6*3", "0"),
    GoldenRow(8, "Z_2×Z_2×Z_2", "elemabelian:2^3", "1", "0"),
    GoldenRow(8, "D_8", "dihedral:4", "2^4", "0"),
    GoldenRow(8, "Q_8", "quaternion:2", "2^11", "3^3"),
    GoldenRow(9, "Z_9", "cyclic:9", "3^14", "2^18"),
    GoldenRow(9, "Z_3×Z_3", "elemabelian:3^2", "3^4", "0"),
    GoldenRow(10, "Z_10", "cyclic:10", "2^4*3^6*5^5", "2^11*3^6"),
    GoldenRow(10, "D_10", "dihedral:5", "5^3", "0"),
    GoldenRow(11, "Z_11", "cyclic:11", "11^9", "2^8*5^8"),
    GoldenRow(12, "Z_12", "cyclic:12", "2^14*3^6*5*131", "2^4*3^2*7*11^3*173"),
    GoldenRow(12, "Z_6×Z_2", "product:(cyclic:6)x(cyclic:2)",
              "2^6*3^5*5^2*17", "2^8*5^3"),
    GoldenRow(12, "A_4", "alt:4", "3^4", "0"),
    GoldenRow(12, "D_12", "dihedral:6", "2^2*3^3*5", "0"),
    GoldenRow(12, "M", "quaternion:3", "2^11*3^2*5*7", "2^3*3^3*5"),
    GoldenRow(13, "Z_13", "cyclic:13", "13^11", "2^20*3^10"),
    GoldenRow(14, "Z_14", "cyclic:14", "2^6*7^7*13^5", "2^11*3^6*13^5"),
    GoldenRow(14, "D_14", "dihedral:7", "7^5", "0"),
    GoldenRow(15, "Z_15", "cyclic:15", "3^10*5^8*11*13^3", "2^17*3^3*5*7^7"),
)


class TableResult(NamedTuple):
    row: GoldenRow
    kappa_computed: int
    kappa_expected: int
    reduced_computed: int | None
    reduced_expected: int | None

    @property
    def kappa_ok(self) -> bool:
        return self.kappa_computed == self.kappa_expected

    @property
    def reduced_ok(self) -> bool:
        return self.reduced_computed == self.reduced_expected

    @property
    def ok(self) -> bool:
        return self.kappa_ok and self.reduced_ok


def compute_table() -> list[TableResult]:
    results = []
    for row in GOLDEN_ROWS:
        g = build(parse_group_spec(row.spec))
        if g.order != row.order:
            raise DiscrepancyDetected(f"{row.name}: built order {g.order} != {row.order}")
        kappa = temperley_kappa(power_graph(g)).value
        reduced = None
        if row.kappa_reduced is not None:
            reduced = temperley_kappa(reduced_power_graph(g)).value
        results.append(
            TableResult(
                row=row,
                kappa_computed=kappa,
                kappa_expected=parse_factored(row.kappa),
                reduced_computed=reduced,
                reduced_expected=(
                    None if row.kappa_reduced is None
                    else parse_factored(row.kappa_reduced)
                ),
            )
        )
    return results


def render_table(results: list[TableResult]) -> str:
    lines = [
        f"{'n':>3}  {'group':<14} {'kappa(G)':<22} {'':<5} "
        f"{'kappa(G#)':<22} {'':<5}"
    ]
    for r in results:
        red = "-" if r.row.kappa_reduced is None else r.row.kappa_reduced
        lines.append(
            f"{r.row.order:>3}  {r.row.name:<14} {r.row.kappa:<22} "
            f"{'PASS' if r.kappa_ok else 'FAIL':<5} {red:<22} "
            f"{'PASS' if r.reduced_ok else 'FAIL':<5}"
        )
        if not r.kappa_ok:
            lines.append(f"     computed kappa = {r.kappa_computed}")
        if not r.reduced_ok:
            lines.append(f"     computed reduced kappa = {r.reduced_computed}")
    total = len(results)
    good = sum(1 for r in results if r.ok)
    lines.append(f"{good}/{total} rows match")
    return "\n".join(lines)
