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
import sys
import time
from contextlib import closing
from functools import cache
from itertools import combinations

from . import closedform
from .errors import InvalidSpec, PowerTreeError, TooLarge
from .groups import FiniteGroup, GroupSpec, build, check_order
from .numutil import format_decimal, in_lanes
from .powergraph import power_graph, reduced_power_graph, to_dot, to_json
from .specparse import parse_group_spec
from .treecount import TreeNumber, exact_integer_determinant, temperley_kappa
from .treecount import block_decomposition_kappa, check_dense_dim, quotient_kappa


def _count(spec: GroupSpec, g: FiniteGroup, method: str, reduced: bool) -> TreeNumber | None:
    """One route's count of g, built from spec; None when no closed form applies."""
    if method == "closed-form":
        return closedform.closed_form(spec, g, reduced)
    if method == "quotient":
        return quotient_kappa(g.poset, reduced)
    graph = reduced_power_graph(g) if reduced else power_graph(g)
    if method == "matrix-tree":
        return temperley_kappa(graph)
    return block_decomposition_kappa(graph)


def cmd_kappa(args) -> int:
    spec = parse_group_spec(args.spec)
    # the builder checks the order cap, before any formula raises to powers near it
    g = build(spec)
    every = args.method == "all"
    methods = ["quotient", "matrix-tree", "decomposition", "closed-form"] if every else [args.method]
    counts = []  # (method, count, elapsed_ms) per route run
    for method in methods:
        start = time.perf_counter()
        try:
            result = _count(spec, g, method, args.reduced)
        except TooLarge as exc:
            # above the dense cap, `all` leaves the determinant routes out
            if not every or method not in ("matrix-tree", "decomposition"):
                raise
            print(f"note: {method} left out: {exc}", file=sys.stderr)
            continue
        if result is None:
            missing = f"no closed form for {spec.render()}{' (reduced)' if args.reduced else ''}"
            if every:
                print(f"note: closed-form left out: {missing}", file=sys.stderr)
                continue
            print(f"note: {missing}; using quotient", file=sys.stderr)
            method, result = "quotient", _count(spec, g, "quotient", args.reduced)
        counts.append((method, result, (time.perf_counter() - start) * 1000))
    if len({count for _, count, _ in counts}) > 1:
        print("discrepancy between methods:", file=sys.stderr)
        for method, count, _ in counts:
            print(f"  {method}: {format_decimal(count.value)}", file=sys.stderr)
        return 1
    if args.format == "json":
        # one object per route; group, order and flag are the call's
        payload = [
            {"group": g.name, "order": g.order, "method": method,
             "kappa": format_decimal(count.value), "factorization": count.factored(),
             "reduced": args.reduced,
             **({"elapsed_ms": round(elapsed_ms, 3)} if args.timing else {})}
            for method, count, elapsed_ms in counts
        ]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         ensure_ascii=False, indent=2))
        return 0
    for method, count, _ in counts:
        text = format_decimal(count.value) if args.format == "plain" else count.factored()
        print(f"{method}: {text}" if len(counts) > 1 else text)
    return 0


def cmd_table1(args) -> int:
    from . import table1

    results = table1.compute_table()
    print(table1.render_table(results))
    return 0 if all(r.ok for r in results) else 1


def _verify_single(n: int) -> str | None:
    """Closed forms against determinants for Z_n: the first mismatch, or None."""
    spec = GroupSpec("cyclic", (n,))
    g = build(spec)
    for reduced in (False, True) if n > 1 else (False,):
        closed = _count(spec, g, "closed-form", reduced).value
        direct = _count(spec, g, "matrix-tree", reduced).value
        if closed != direct:
            name = g.name + " reduced" * reduced
            return f"kappa({name}): closed form {closed} != matrix-tree {direct}"
    return None


def _verify_run(ns) -> str | None:
    """The first mismatch of _verify_single over ns, in order, or None."""
    return next(filter(None, map(_verify_single, ns)), None)


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise InvalidSpec("--max-n must be >= 1")
    check_order(args.max_n, f"Z_{args.max_n}")
    # Z_n's full graph has the largest determinant, of n rows
    check_dense_dim(args.max_n, "verify --max-n")
    # the lanes take the pairs (1, 2), (3, 4), ..., so each gets odd and even n alike
    pairs = [range(n, min(n + 2, args.max_n + 1)) for n in range(1, args.max_n + 1, 2)]
    with closing(in_lanes(_verify_run, pairs)) as failures:
        failure = next(filter(None, failures), None)  # that of the smallest n
    if failure is not None:
        print(f"FAIL: {failure}")
        return 1
    print(f"all n up to {args.max_n} verified")
    return 0


def cmd_divisor_graph(args) -> int:
    check_order(args.n, f"Z_{args.n}")
    poset = closedform.divisor_profile(args.n)
    middle, adjacency = poset.orders[2:], closedform.incomparability(poset)
    edges = [
        (middle[i], middle[j])
        for i, j in combinations(range(len(middle)), 2)
        if adjacency[i][j] == args.complement  # the complement joins the incomparable
    ]
    complement = " complement" if args.complement else ""
    title = f"divisor graph{complement}, middle divisors of {args.n}"
    if args.format == "json":
        payload = {
            "n": args.n,
            "complement": args.complement,
            "vertices": list(middle),
            "edges": [list(e) for e in sorted(edges)],
        }
        print(json.dumps(payload, ensure_ascii=False, separators=(", ", ": ")))
    else:
        lines = [f'graph "{title}" {{']
        for d in middle:
            lines.append(f"  {d};")
        for a, b in sorted(edges):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    from . import classify as classify_mod

    if args.a5:
        report = classify_mod.verify_a5_recognition()
        print(json.dumps(report, ensure_ascii=False, indent=2))
        failures = [r for r in report if r["verdict"] != "PASS"]
        return 0 if not failures else 1
    if args.target is None:
        raise InvalidSpec("classify needs a target value or --a5")
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
    if args.format == "dot":
        to_dot(graph, sys.stdout)
    else:
        to_json(graph, sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_det(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            matrix = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, too-long integers
        raise InvalidSpec(f"cannot read matrix from {args.file}: {exc}") from exc
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InvalidSpec("matrix file must hold a JSON array of arrays")
    check_dense_dim(len(matrix), "det")
    try:
        print(format_decimal(exact_integer_determinant(matrix)))
    except (ValueError, TypeError) as exc:
        raise InvalidSpec(str(exc)) from exc
    return 0


# One row per subcommand: name, help, arguments as (name or flag, options), handler.
COMMANDS = {
    "kappa": ("tree count of a group's power graph", (
        ("spec", {"help": "group spec, e.g. cyclic:12 or product:(cyclic:3)x(cyclic:2)"}),
        ("--reduced", {"action": "store_true", "help": "delete the identity vertex first"}),
        ("--method", {"default": "quotient", "choices": [
            "quotient", "matrix-tree", "closed-form", "decomposition", "all"]}),
        ("--format", {"default": "plain", "choices": ["plain", "factored", "json"]}),
        ("--timing", {"action": "store_true", "help": "include elapsed_ms in JSON output"}),
    ), cmd_kappa),
    "table1": ("recompute the small-group golden table", (), cmd_table1),
    "verify": ("closed forms vs determinants for Z_1..Z_N", (
        ("--max-n", {"type": int, "required": True}),
    ), cmd_verify),
    "divisor-graph": ("middle-divisor graph of n (or its complement)", (
        ("n", {"type": int}),
        ("--complement", {"action": "store_true"}),
        ("--format", {"default": "dot", "choices": ["dot", "json"]}),
    ), cmd_divisor_graph),
    "classify": ("groups with a given tree count (< 125)", (
        ("target", {"nargs": "?", "type": int}),
        ("--a5", {"action": "store_true", "help": "run the A_5 recognition evidence chain"}),
    ), cmd_classify),
    "graph": ("emit a power graph as DOT or JSON", (
        ("spec", {}),
        ("--reduced", {"action": "store_true"}),
        ("--format", {"default": "dot", "choices": ["dot", "json"]}),
    ), cmd_graph),
    "det": ("exact determinant of a JSON matrix file", (("file", {}),), cmd_det),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each parse still returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="powertree",
        description="Exact spanning-tree counts of power graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PowerTreeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
