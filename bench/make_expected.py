"""Compute `expected.json`, the stored answer of every benchmark item.

Run from the repository root:

    python3 bench/make_expected.py                        # rewrite expected.json
    python3 bench/make_expected.py --check-direct 2 300   # also cross-check Z_n

Every tree count here comes from the twin-class quotient, written out in
this file. Elements that generate the same cyclic subgroup C are closed
twins, k_C = phi(|C|) of them with a common degree d_C, so by the
matrix-tree theorem

    kappa = prod_C (d_C + 1)^(k_C - 1) * tau_W / prod_C k_C,

where tau_W counts weighted spanning trees of the comparability graph of
cyclic subgroups, edge C-D weighted k_C * k_D. Deleting the identity class
gives the reduced graph. The quotient is a different route from each one
the benchmark times:

- catalog-dense values are also compared with the package's closed forms,
  or with its block-product route where no closed form applies;
- cyclic-closed-form values use only the divisor lattice of n; with
  `--check-direct LO HI` they are compared with the direct determinant
  det(J+Q)/n^2 for LO <= n <= HI (slow: about 2 s at n = 200, 40 s at 420);
- graph-export values (vertex count, edge count, degree sequence) come from
  the class structure, not from the package's graph construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CYCLIC_MAX_N, item_key, items  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination with row pivoting."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * (m[n - 1][n - 1] if n else 1)


def quotient_kappa(sizes: list[int], neighbours: list[set[int]]) -> int:
    """Tree count of the graph blown up from twin classes (see module doc)."""
    c = len(sizes)
    degrees = [sizes[i] - 1 + sum(sizes[j] for j in neighbours[i]) for i in range(c)]
    laplacian = [[0] * c for _ in range(c)]
    for i in range(c):
        for j in neighbours[i]:
            w = sizes[i] * sizes[j]
            laplacian[i][j] -= w
            laplacian[i][i] += w
    tau = determinant([row[:-1] for row in laplacian[:-1]])
    numerator = prod((d + 1) ** (k - 1) for d, k in zip(degrees, sizes)) * tau
    value, rem = divmod(numerator, prod(sizes))
    if rem:
        raise ArithmeticError("quotient count did not divide exactly")
    return value


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def cyclic_kappa(n: int, reduced: bool) -> int:
    """kappa of P(Z_n) from the divisor lattice: one class per divisor."""
    divs = divisors(n)
    if reduced:
        divs = divs[1:]
    sizes = [totient(d) for d in divs]
    neighbours = [
        {j for j, e in enumerate(divs) if e != d and (e % d == 0 or d % e == 0)}
        for d in divs
    ]
    return quotient_kappa(sizes, neighbours)


def twin_classes(group, reduced: bool) -> tuple[list[int], list[set[int]]]:
    """Class sizes and comparability lists of a built group's cyclic subgroups."""
    members: dict[frozenset, int] = {}
    generator: dict[frozenset, int] = {}
    for element, closure in enumerate(group.cyclic_closure):
        members[closure] = members.get(closure, 0) + 1
        generator.setdefault(closure, element)
    classes = [c for c in members if not (reduced and len(c) == 1)]
    reps = [generator[c] for c in classes]
    neighbours: list[set[int]] = [set() for _ in classes]
    for i, small in enumerate(classes):
        for j, big in enumerate(classes):
            if len(small) < len(big) and len(big) % len(small) == 0 and reps[i] in big:
                neighbours[i].add(j)
                neighbours[j].add(i)
    return [members[c] for c in classes], neighbours


def package_kappa(spec, reduced: bool) -> int:
    """The same count by the package's closed form or block-product route."""
    from powertree import closedform
    from powertree.errors import NotEPO
    from powertree.groups import build
    from powertree.powergraph import power_graph, reduced_power_graph
    from powertree.treecount import as_multigraph, block_decomposition_kappa

    kind, params = spec.kind, spec.params
    if kind == "cyclic":
        fn = closedform.kappa_cyclic_reduced if reduced else closedform.kappa_cyclic
        return fn(params[0]).value
    if reduced and kind == "quaternion":
        return closedform.kappa_quaternion_reduced(params[0]).value
    if not reduced:
        if kind == "dihedral":
            return closedform.kappa_dihedral(params[0]).value
        if kind == "quaternion" and params[0] & (params[0] - 1) == 0:
            return closedform.kappa_quaternion_pow2(params[0]).value
        if kind == "elemabelian":
            return closedform.kappa_elementary_abelian(*params).value
        if kind == "semidirect":
            return closedform.kappa_semidirect_pq(*params).value
        try:
            return closedform.kappa_epo(build(spec)).value
        except NotEPO:
            pass
    group = build(spec)
    graph = reduced_power_graph(group) if reduced else power_graph(group)
    if not as_multigraph(graph).is_connected():
        return 0
    return block_decomposition_kappa(graph).value


def catalog_dense_expected() -> dict:
    from powertree.groups import build
    from powertree.specparse import parse_group_spec

    out = {}
    for argv in items("catalog-dense"):
        spec = parse_group_spec(argv[1])
        reduced = "--reduced" in argv
        value = quotient_kappa(*twin_classes(build(spec), reduced))
        other = package_kappa(spec, reduced)
        if value != other:
            raise SystemExit(f"{item_key(argv)}: quotient {value} != package {other}")
        out[item_key(argv)] = {"kappa": str(value)}
    return out


def cyclic_expected() -> dict:
    out = {}
    for argv in items("cyclic-closed-form"):
        n = int(argv[1].split(":")[1])
        out[item_key(argv)] = {"kappa": str(cyclic_kappa(n, "--reduced" in argv))}
    return out


def graph_expected() -> dict:
    from powertree.groups import build
    from powertree.specparse import parse_group_spec

    out = {}
    for argv in items("graph-export"):
        sizes, neighbours = twin_classes(build(parse_group_spec(argv[1])), False)
        degree_count: dict[int, int] = {}
        for k, nbrs in zip(sizes, neighbours):
            d = k - 1 + sum(sizes[j] for j in nbrs)
            degree_count[d] = degree_count.get(d, 0) + k
        out[item_key(argv)] = {
            "vertices": sum(sizes),
            "edges": sum(d * c for d, c in degree_count.items()) // 2,
            "degrees": sorted([d, c] for d, c in degree_count.items()),
        }
    return out


def check_direct(expected: dict, lo: int, hi: int) -> int:
    """Compare stored Z_n values with the direct det(J+Q)/n^2 route."""
    from powertree.groups import GroupSpec, build
    from powertree.powergraph import power_graph, reduced_power_graph
    from powertree.treecount import temperley_kappa

    bad = 0
    for n in range(max(lo, 2), min(hi, CYCLIC_MAX_N) + 1):
        group = build(GroupSpec("cyclic", (n,)))
        for reduced, graph_fn in ((False, power_graph), (True, reduced_power_graph)):
            argv = ["kappa", f"cyclic:{n}", *(["--reduced"] if reduced else []),
                    "--method", "closed-form", "--format", "json"]
            direct = temperley_kappa(graph_fn(group)).value
            if str(direct) != expected[item_key(argv)]["kappa"]:
                bad += 1
                print(f"MISMATCH {item_key(argv)}", flush=True)
        print(f"direct determinant agrees through n = {n}", flush=True)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-direct", nargs=2, type=int, metavar=("LO", "HI"))
    args = parser.parse_args(argv)
    if args.check_direct:
        expected = json.loads(EXPECTED_PATH.read_text())["cyclic-closed-form"]
        return 1 if check_direct(expected, *args.check_direct) else 0
    expected = {
        "catalog-dense": catalog_dense_expected(),
        "cyclic-closed-form": cyclic_expected(),
        "graph-export": graph_expected(),
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.name}: "
          + ", ".join(f"{w} {len(v)} items" for w, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
