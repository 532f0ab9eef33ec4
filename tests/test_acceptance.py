"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison of counts is bit-exact integer equality.
"""

import random
import time

from powertree.classify import (
    classify_kappa_below_125,
    epo_check_and_bound,
    is_star_kappa_one,
    sylow_lower_bound,
    verify_a5_recognition,
)
from powertree.closedform import (
    kappa_cyclic,
    kappa_cyclic_expansion,
    kappa_cyclic_reduced,
    kappa_dihedral,
    kappa_epo,
    kappa_quaternion_pow2,
    kappa_quaternion_reduced,
)
from powertree.groups import build
from powertree.numutil import parse_factored
from powertree.powergraph import clique_number, power_graph, reduced_power_graph
from powertree.specparse import parse_group_spec
from powertree.table1 import compute_table
from powertree.treecount import (
    MultiGraph,
    temperley_kappa,
)

from randgraphs import random_connected_multigraph
from treeoracles import deletion_contraction_kappa, enumerate_spanning_trees

A5_KAPPA = 3**10 * 5**18

# Groups of order <= 60 used for the bounds criterion.
CATALOG_UP_TO_60 = (
    [f"cyclic:{n}" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16,
                             18, 20, 24, 27, 30, 32, 36, 45, 48, 60)]
    + [f"dihedral:{n}" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 21, 30)]
    + [f"quaternion:{n}" for n in (2, 3, 4, 5, 6, 7, 8, 12, 15)]
    + ["elemabelian:2^2", "elemabelian:2^3", "elemabelian:2^4",
       "elemabelian:2^5", "elemabelian:3^2", "elemabelian:3^3",
       "elemabelian:5^2", "elemabelian:7^2"]
    + ["sym:3", "sym:4", "alt:4", "alt:5"]
    + ["semidirect:3:2", "semidirect:5:2", "semidirect:7:2", "semidirect:7:3",
       "semidirect:11:2", "semidirect:13:2", "semidirect:11:5",
       "semidirect:13:3", "semidirect:19:3"]
    + ["perm:6:(1 2 3);(4 5 6);(2 3)(5 6)"]
    + ["product:(cyclic:4)x(cyclic:2)", "product:(cyclic:6)x(cyclic:2)",
       "product:(cyclic:4)x(cyclic:4)", "product:(cyclic:8)x(cyclic:2)",
       "product:(cyclic:5)x(cyclic:5)"]
)


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"Criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _graph(text, reduced=False):
    g = build(parse_group_spec(text))
    return reduced_power_graph(g) if reduced else power_graph(g)


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    results = compute_table()
    elapsed = time.perf_counter() - start
    bad = [r for r in results if not r.ok]
    for r in bad:
        print(
            f"  mismatch {r.row.name}: kappa={r.kappa_computed} "
            f"(expected {r.kappa_expected}), reduced={r.reduced_computed} "
            f"(expected {r.reduced_expected})"
        )
    _report(
        1,
        len(results) == 28 and not bad and elapsed < 5.0,
        "all 28 golden-table rows (|G| <= 15) match bit-exactly, both columns",
        f"{elapsed:.2f}s",
    )


def test_criterion_02_cyclic_formula_sweep_to_100():
    start = time.perf_counter()
    failures = []
    for n in range(1, 101):
        g = build(parse_group_spec(f"cyclic:{n}"))
        if kappa_cyclic(n).value != temperley_kappa(power_graph(g)).value:
            failures.append(("full", n))
        if n >= 2 and kappa_cyclic_reduced(n).value != temperley_kappa(
            reduced_power_graph(g)
        ).value:
            failures.append(("reduced", n))
    elapsed = time.perf_counter() - start
    _report(
        2,
        not failures and elapsed < 60.0,
        "divisor-determinant formulas match matrix-tree for n = 1..100, "
        "full and reduced",
        f"{elapsed:.2f}s" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_03_subset_expansion_equals_determinant():
    failures = [
        n
        for n in range(1, 101)
        if kappa_cyclic_expansion(n).value != kappa_cyclic(n).value
    ]
    _report(
        3,
        not failures,
        "literal subset expansion equals determinant form for n = 1..100",
        f"failures={failures}" if failures else "",
    )


def test_criterion_04_a5_two_routes():
    start = time.perf_counter()
    a5 = build(parse_group_spec("alt:5"))
    epo_value = kappa_epo(a5).value
    det_value = temperley_kappa(power_graph(a5)).value
    elapsed = time.perf_counter() - start
    _report(
        4,
        epo_value == A5_KAPPA == det_value and elapsed < 1.0,
        "kappa(A_5) = 3^10*5^18 by the prime-order product and the "
        "60-vertex determinant",
        f"{elapsed:.2f}s",
    )


def test_criterion_05_quaternion_identities():
    ok = True
    details = []
    for n in range(1, 21):
        formula = kappa_quaternion_reduced(n).value
        direct = temperley_kappa(_graph(f"quaternion:{n}", reduced=True)).value
        tripled = 3**n * kappa_cyclic_reduced(2 * n).value
        if not formula == direct == tripled:
            ok = False
            details.append(f"reduced n={n}")
    for n in (1, 2, 4, 8):
        formula = kappa_quaternion_pow2(n).value
        direct = temperley_kappa(_graph(f"quaternion:{n}")).value
        stated = 2 ** (5 * n - 1) * n ** (2 * n - 2)
        corollary = 3**n * (2 * n - 1) ** (2 * n - 3) if n > 1 else 3
        if not formula == direct == stated:
            ok = False
            details.append(f"full n={n}")
        if kappa_quaternion_reduced(n).value != corollary:
            ok = False
            details.append(f"corollary n={n}")
    _report(
        5,
        ok,
        "dicyclic identities: reduced = 3^n * reduced cyclic for n <= 20; "
        "full = 2^(5n-1) n^(2n-2) and the power-of-two corollary for "
        "n in {1,2,4,8}",
        ", ".join(details),
    )


def test_criterion_06_dihedral_identity():
    failures = []
    for n in range(1, 21):
        closed = kappa_dihedral(n).value
        direct = temperley_kappa(_graph(f"dihedral:{n}")).value
        cyclic = kappa_cyclic(n).value
        if not closed == direct == cyclic:
            failures.append(n)
    _report(
        6,
        not failures,
        "kappa(D_2n) equals kappa(Z_n), checked against matrix-tree for "
        "n = 1..20",
        f"failures={failures}" if failures else "",
    )


def test_criterion_07_oracle_triangle():
    rng = random.Random(97)
    failures = 0
    for i in range(200):
        g = random_connected_multigraph(rng)
        a = temperley_kappa(g).value
        b = deletion_contraction_kappa(g).value
        c = enumerate_spanning_trees(g).value
        if not a == b == c:
            failures += 1
            print(f"  graph {i}: temperley={a} dc={b} enum={c} {g}")
    cayley_ok = all(
        temperley_kappa(
            MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        ).value
        == n ** max(n - 2, 0)
        for n in range(1, 13)
    )
    _report(
        7,
        failures == 0 and cayley_ok,
        "200 random connected multigraphs agree across matrix-tree, "
        "deletion-contraction and enumeration; complete graphs match "
        "n^(n-2) for n <= 12",
    )


def test_criterion_08_bounds_suite():
    failures = []
    for text in CATALOG_UP_TO_60:
        g = build(parse_group_spec(text))
        assert g.order <= 60, text
        graph = power_graph(g)
        kappa = temperley_kappa(graph).value
        if sylow_lower_bound(g) > kappa:
            failures.append(f"sylow {text}")
        if epo_check_and_bound(g) > kappa:
            failures.append(f"epo {text}")
        omega = clique_number(graph)
        if omega ** (omega - 2) > kappa:
            failures.append(f"clique {text}")
    for n in range(3, 201):
        if kappa_cyclic(n).value % n != 0:
            failures.append(f"divisibility {n}")
    star_specs = ["cyclic:1"] + [f"elemabelian:2^{k}" for k in range(1, 6)]
    for text in star_specs:
        if is_star_kappa_one(build(parse_group_spec(text))) != (True, True, True):
            failures.append(f"star {text}")
    non_examples = [
        "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "sym:3", "cyclic:7",
        "cyclic:8", "dihedral:4", "quaternion:2", "cyclic:9",
        "elemabelian:3^2", "cyclic:10", "dihedral:5", "cyclic:12", "alt:4",
        "dihedral:6", "quaternion:3", "product:(cyclic:4)x(cyclic:2)",
        "semidirect:7:3", "alt:5",
    ]
    assert len(non_examples) == 20
    for text in non_examples:
        if is_star_kappa_one(build(parse_group_spec(text))) != (False, False, False):
            failures.append(f"non-star {text}")
    _report(
        8,
        not failures,
        "Sylow/prime-order/clique lower bounds hold on the order-<=60 "
        "catalog; n | kappa(Z_n) for 2 < n <= 200; star equivalence on "
        "elementary abelian 2-groups up to 32 and 20 non-examples",
        f"failures={failures}" if failures else "",
    )


def test_criterion_09_classification():
    checks = []
    checks.append(classify_kappa_below_125(2) is None)
    three = classify_kappa_below_125(3)
    checks.append(three is not None and three.groups == ("Z_3", "S_3"))
    sixteen = classify_kappa_below_125(16)
    checks.append(sixteen is not None and sixteen.groups == ("Z_4", "D_8"))
    eightyone = classify_kappa_below_125(81)
    checks.append(
        eightyone is not None
        and set(eightyone.groups)
        == {"Z_3×Z_3", "(Z_3×Z_3)⋊Z_2", "A_4"}
    )
    for entry in (three, sixteen, eightyone):
        for spec_text in entry.spec_strings:
            direct = temperley_kappa(_graph(spec_text)).value
            checks.append(direct == entry.kappa_value)
    _report(
        9,
        all(checks),
        "classification below 125: no group at 2; {Z_3, S_3} at 3; "
        "{Z_4, D_8} at 16; {Z_3xZ_3, (Z_3xZ_3):Z_2, A_4} at 81, each "
        "re-verified by direct computation",
    )


def test_criterion_10_a5_recognition_report():
    start = time.perf_counter()
    report = verify_a5_recognition()
    elapsed = time.perf_counter() - start
    for entry in report:
        print(f"  {entry['verdict']}: {entry['check']}")
    verdicts_ok = len(report) == 5 and all(
        e["verdict"] == "PASS" for e in report
    )
    a6_line = next(e for e in report if e["check"] == "candidate_elimination")
    a6_value = int(a6_line["computed"].rsplit("=", 1)[1])
    a6_expected = parse_factored("2^180*3^40*5^108")
    _report(
        10,
        verdicts_ok and elapsed < 30.0 and a6_value == a6_expected,
        "all five recognition checks pass, including the direct 360-vertex "
        "computation of kappa(A_6)",
        f"{elapsed:.2f}s, kappa(A_6)={a6_line['computed'].rsplit('=', 1)[1][:24]}...",
    )
