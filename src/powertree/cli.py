"""Command-line front end.

Subcommands: kappa, table1, verify, divisor-graph, classify, graph, det.
Exit codes: 0 success, 1 when a check fails (verify, table1, classify --a5,
or `kappa --method all` with disagreeing methods). A PowerTreeError exits
with the code its type carries (2 usage, 3 resource cap, 1 discrepancy) and
prints its type's label on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import classify as classify_mod
from . import closedform, table1
from .errors import InvalidSpec, NotEPO, OutOfRange, PowerTreeError, TooLarge, UnsupportedOrder
from .groups import FiniteGroup, GroupSpec, build, max_order
from .numutil import format_decimal
from .powergraph import power_graph, reduced_power_graph, to_dot, to_json
from .specparse import parse_group_spec
from .treecount import TreeNumber, exact_integer_determinant, temperley_kappa
from .treecount import block_decomposition_kappa, quotient_kappa


@dataclass
class OutputRecord:
    """One computed tree count; it is rendered, and factored, only on output."""

    group: str
    order: int
    method: str
    kappa: TreeNumber
    reduced: bool
    elapsed_ms: float

    def to_dict(self, timing: bool = False) -> dict:
        payload = {
            "group": self.group,
            "order": self.order,
            "method": self.method,
            "kappa": format_decimal(self.kappa.value),
            "factorization": self.kappa.factored(),
            "reduced": self.reduced,
        }
        if timing:
            payload["elapsed_ms"] = round(self.elapsed_ms, 3)
        return payload


def _closed_form(spec: GroupSpec, g: FiniteGroup, reduced: bool) -> TreeNumber | None:
    """Formula-based count when one applies to this family, else None."""
    k, p = spec.kind, spec.params
    if k == "cyclic":
        return closedform.kappa_cyclic(p[0], reduced)
    if k == "dihedral":
        return None if reduced else closedform.kappa_dihedral(p[0])
    if k == "quaternion":
        n = p[0]
        if reduced:
            return closedform.kappa_quaternion_reduced(n)
        if n & (n - 1) == 0:
            return closedform.kappa_quaternion_pow2(n)
        return None
    if reduced:
        return None
    if k == "elemabelian":
        return closedform.kappa_elementary_abelian(*p)
    if k == "semidirect":
        return closedform.kappa_semidirect_pq(*p)
    try:
        return closedform.kappa_epo(g)
    except NotEPO:
        return None


def _compute_record(
    spec: GroupSpec, method: str, reduced: bool, fallback: bool = True
) -> OutputRecord | None:
    start = time.perf_counter()
    # the builder checks the order cap, before any formula raises to powers near it
    g = build(spec)
    used = method
    if method == "closed-form":
        result = _closed_form(spec, g, reduced)
        if result is None:
            if not fallback:
                return None
            print(
                f"note: no closed form for {spec.render()}"
                f"{' (reduced)' if reduced else ''}; using quotient",
                file=sys.stderr,
            )
            used = "quotient"
    if used == "quotient":
        result = quotient_kappa(g, reduced)
    elif used != "closed-form":
        graph = reduced_power_graph(g) if reduced else power_graph(g)
        if used == "matrix-tree":
            result = temperley_kappa(graph)
        else:
            result = block_decomposition_kappa(graph)
    return OutputRecord(
        group=g.name,
        order=g.order,
        method=used,
        kappa=result,
        reduced=reduced,
        elapsed_ms=(time.perf_counter() - start) * 1000,
    )


def cmd_kappa(args) -> int:
    spec = parse_group_spec(args.spec)
    methods = (
        ["quotient", "matrix-tree", "decomposition", "closed-form"]
        if args.method == "all"
        else [args.method]
    )
    records = []
    for method in methods:
        record = _compute_record(spec, method, args.reduced, fallback=args.method != "all")
        if record is not None:
            records.append(record)
    values = {r.kappa for r in records}
    if len(values) > 1:
        print("discrepancy between methods:", file=sys.stderr)
        for r in records:
            print(f"  {r.method}: {format_decimal(r.kappa.value)}", file=sys.stderr)
        return 1
    _emit_records(records, args.format, getattr(args, "timing", False))
    return 0


def _emit_records(records, fmt: str, timing: bool) -> None:
    if fmt == "json":
        payload = [r.to_dict(timing) for r in records]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         ensure_ascii=False, indent=2))
        return
    for r in records:
        text = format_decimal(r.kappa.value) if fmt == "plain" else r.kappa.factored()
        if len(records) > 1:
            print(f"{r.method}: {text}")
        else:
            print(text)


def cmd_table1(args) -> int:
    results = table1.compute_table()
    print(table1.render_table(results))
    return 0 if all(r.ok for r in results) else 1


def _verify_single(n: int) -> tuple[int, str | None]:
    """Closed forms against determinants for Z_n; returns (n, failure or None)."""
    g = build(GroupSpec("cyclic", (n,)))
    for reduced in (False, True) if n > 1 else (False,):
        closed = closedform.kappa_cyclic(n, reduced).value
        graph = reduced_power_graph(g) if reduced else power_graph(g)
        direct = temperley_kappa(graph).value
        if closed != direct:
            name = f"Z_{n} reduced" if reduced else f"Z_{n}"
            return n, f"kappa({name}): closed form {closed} != matrix-tree {direct}"
    return n, None


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise OutOfRange("--max-n must be >= 1")
    cap = max_order()
    if args.max_n > cap:
        raise UnsupportedOrder(f"--max-n {args.max_n} > order cap {cap}")
    if args.jobs < 1:
        raise OutOfRange("--jobs must be >= 1")
    values = range(1, args.max_n + 1)
    # the pool starts every worker up front, so more than there are cores or
    # values of n only costs processes
    workers = min(args.jobs, os.cpu_count() or 1, args.max_n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_single, values))
    else:
        results = [_verify_single(n) for n in values]
    for _, failure in sorted(results):
        if failure is not None:
            print(f"FAIL: {failure}")
            return 1
    print(f"all n up to {args.max_n} verified")
    return 0


def cmd_divisor_graph(args) -> int:
    if args.n < 1:
        raise OutOfRange("n must be >= 1")
    cap = max_order()
    if args.n > cap:
        raise UnsupportedOrder(f"n = {args.n} > order cap {cap}")
    dg = closedform.divisor_graph(args.n)
    middle = set(dg.middle)
    if args.complement:
        edges = list(dg.complement_middle_edges)
        title = f"divisor graph complement, middle divisors of {args.n}"
    else:
        edges = [e for e in dg.edges if e[0] in middle and e[1] in middle]
        title = f"divisor graph, middle divisors of {args.n}"
    if args.format == "json":
        payload = {
            "n": args.n,
            "complement": args.complement,
            "vertices": list(dg.middle),
            "edges": [list(e) for e in sorted(edges)],
        }
        print(json.dumps(payload, ensure_ascii=False, separators=(", ", ": ")))
    else:
        lines = [f'graph "{title}" {{']
        for d in dg.middle:
            lines.append(f"  {d};")
        for a, b in sorted(edges):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    if args.a5:
        report = classify_mod.verify_a5_recognition()
        print(json.dumps(report, ensure_ascii=False, indent=2))
        failures = [r for r in report if r["verdict"] != "PASS"]
        return 0 if not failures else 1
    if args.target is None:
        raise OutOfRange("classify needs a target value or --a5")
    entry = classify_mod.classify_kappa_below_125(args.target)
    if entry is None:
        print(f"no group has tree count {args.target}")
    elif entry.symbolic_family:
        print(f"tree count {entry.kappa_value}: {entry.symbolic_family}")
    else:
        names = ", ".join(entry.groups)
        print(f"tree count {entry.kappa_value}: {names}")
    return 0


def cmd_graph(args) -> int:
    g = build(parse_group_spec(args.spec))
    graph = reduced_power_graph(g) if args.reduced else power_graph(g)
    text = to_dot(graph) if args.format == "dot" else to_json(graph) + "\n"
    sys.stdout.write(text)
    return 0


# `det FILE` reads its matrix from outside. Bareiss on a dense 200x200 matrix
# with entries in -9..9 took about 4 s (Python 3.11, one core of a shared
# x86-64 host), and its time grows about 2^4.3-fold per doubling of the size.
DET_MAX_DIM = 200


def cmd_det(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            matrix = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, too-long integers
        raise InvalidSpec(f"cannot read matrix from {args.file}: {exc}") from exc
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InvalidSpec("matrix file must hold a JSON array of arrays")
    if len(matrix) > DET_MAX_DIM:
        raise TooLarge(f"det capped at dimension {DET_MAX_DIM}, got {len(matrix)}")
    try:
        print(format_decimal(exact_integer_determinant(matrix)))
    except (ValueError, TypeError) as exc:
        raise InvalidSpec(str(exc)) from exc
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertree",
        description="Exact spanning-tree counts of power graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="tree count of a group's power graph")
    p.add_argument("spec", help="group spec, e.g. cyclic:12 or product:(cyclic:3)x(cyclic:2)")
    p.add_argument("--reduced", action="store_true", help="delete the identity vertex first")
    p.add_argument("--method", default="quotient",
                   choices=["quotient", "matrix-tree", "closed-form", "decomposition", "all"])
    p.add_argument("--format", default="plain", choices=["plain", "factored", "json"])
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in JSON output")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("table1", help="recompute the small-group golden table")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="closed forms vs determinants for Z_1..Z_N")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (>= 1), at most one per core and per n")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("divisor-graph", help="middle-divisor graph of n (or its complement)")
    p.add_argument("n", type=int)
    p.add_argument("--complement", action="store_true")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.set_defaults(func=cmd_divisor_graph)

    p = sub.add_parser("classify", help="groups with a given tree count (< 125)")
    p.add_argument("target", nargs="?", type=int)
    p.add_argument("--a5", action="store_true",
                   help="run the A_5 recognition evidence chain")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graph", help="emit a power graph as DOT or JSON")
    p.add_argument("spec")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("det", help="exact determinant of a JSON matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_det)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PowerTreeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
