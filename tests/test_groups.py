import ast
import re
import tracemalloc
from collections import Counter
from itertools import permutations
from itertools import product as iproduct
from math import gcd
from pathlib import Path

import pytest

from powertree import groups
from powertree.cli import main
from powertree.errors import InvalidSpec, TooLarge
from powertree.groups import (
    MAX_PRODUCT_DEPTH,
    FiniteGroup,
    GroupSpec,
    _compose,
    _cycle_notation,
    _positions,
    build,
    count_cyclic_subgroups,
    direct_product,
    spectrum,
)
from powertree.numutil import divisors, phi
from powertree.specparse import parse_group_spec
from test_acceptance import CATALOG_UP_TO_60
from test_powergraph import LABEL_SPECS

# Exercised (order <= 64) for the full associativity/identity/inverse sweep.
AXIOM_SPECS = [
    "cyclic:1",
    "cyclic:6",
    "cyclic:12",
    "dihedral:4",
    "dihedral:6",
    "quaternion:2",
    "quaternion:3",
    "elemabelian:2^3",
    "elemabelian:3^2",
    "sym:3",
    "sym:4",
    "alt:4",
    "alt:5",
    "semidirect:7:3",
    "product:(cyclic:4)x(cyclic:2)",
    "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
]


def _build(text):
    return build(parse_group_spec(text))


def element_orders(g):
    """|<i>| for every element i, read from the poset record."""
    return [g.poset.orders[c] for c in g.cyclic_class]


def order_profile(g):
    return Counter(element_orders(g))


def _has_inverse(g, a):
    """Some member of <a> multiplies with a, on either side, to the identity."""
    return any(g.multiply(a, b) == 0 == g.multiply(b, a) for b in g.cyclic_closure[a])


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_group_axioms_exhaustive(spec):
    g = _build(spec)
    assert g.order <= 64
    n = g.order
    for a in range(n):
        assert g.multiply(0, a) == a
        assert g.multiply(a, 0) == a
        assert _has_inverse(g, a)
    for a in range(n):
        for b in range(n):
            ab = g.multiply(a, b)
            for c in range(n):
                assert g.multiply(ab, c) == g.multiply(a, g.multiply(b, c))


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_lagrange_and_closures(spec):
    g = _build(spec)
    orders = element_orders(g)
    for i, closure in enumerate(g.cyclic_closure):
        assert 0 in closure
        assert orders[i] == len(closure)
        assert g.order % orders[i] == 0


def _closures_by_multiply(g):
    """<x> for every element x, by repeated multiplication."""
    closures = []
    for x in range(g.order):
        members, y = {0}, x
        while y != 0:
            members.add(y)
            y = g.multiply(y, x)
        closures.append(frozenset(members))
    return closures


def _check_cyclic_partition(g):
    """cyclic_class, the poset record and the cyclic_closure view against
    per-element closures found by multiplying."""
    closures = _closures_by_multiply(g)
    subgroups = list(dict.fromkeys(closures))  # in order of first element
    cls, (orders, sizes, below) = g.cyclic_class, g.poset
    assert subgroups[0] == {0}
    assert len(orders) == len(sizes) == len(below) == len(subgroups)
    assert g.cyclic_closure == closures
    for x in range(g.order):
        assert subgroups[cls[x]] == closures[x]
        for y in range(g.order):
            assert (cls[x] == cls[y]) == (closures[x] == closures[y])
    members = Counter(cls)
    for c, subgroup in enumerate(subgroups):
        assert orders[c] == len(subgroup)
        assert sizes[c] == members[c] == phi(len(subgroup))
        assert len(set(below[c])) == len(below[c])
        assert set(below[c]) == {b for b, inner in enumerate(subgroups) if inner < subgroup}
        assert below[c][:1] == ((0,) if c else ())


PARTITION_SPECS = [f"cyclic:{n}" for n in range(1, 61)] + [
    "dihedral:30",
    "quaternion:15",
    "sym:5",
    "alt:5",
    "elemabelian:3^3",
    "product:(sym:4)x(cyclic:6)",
]


@pytest.mark.parametrize("spec", PARTITION_SPECS)
def test_cyclic_partition_matches_closures(spec):
    _check_cyclic_partition(_build(spec))


def test_cyclic_6_order_profile():
    g = _build("cyclic:6")
    assert order_profile(g) == Counter({1: 1, 2: 1, 3: 2, 6: 2})
    assert repr(g) == "FiniteGroup(Z_6, order=6)"


def test_cyclic_element_counts_are_totients():
    for n in range(1, 51):
        g = _build(f"cyclic:{n}")
        profile = order_profile(g)
        for d in divisors(n):
            assert profile[d] == phi(d)


def test_quaternion_q8_unique_involution():
    g = _build("quaternion:2")
    assert g.order == 8
    assert element_orders(g).count(2) == 1


def test_quaternion_pow2_common_involution():
    # the cyclic subgroup of every non-identity element passes through x^n
    for n in (1, 2, 4, 8):
        g = _build(f"quaternion:{n}")
        central = n  # element x^n has index n in the rotation block
        assert element_orders(g)[central] == 2 or g.order == 4
        for closure in g.cyclic_closure[1:]:
            assert central in closure


def test_alternating_5_order_counts():
    g = _build("alt:5")
    assert g.order == 60
    assert order_profile(g) == Counter({1: 1, 2: 15, 3: 20, 5: 24})


def test_alternating_6_order():
    assert _build("alt:6").order == 360


def test_symmetric_orders():
    assert _build("sym:3").order == 6
    assert _build("sym:4").order == 24
    assert _build("sym:5").order == 120


def test_dihedral_reflections_are_involutions():
    for n in range(1, 16):
        g = _build(f"dihedral:{n}")
        assert g.order == 2 * n
        assert element_orders(g)[n:] == [2] * n


def test_degenerate_dihedrals_overlap_abelian_groups():
    assert order_profile(_build("dihedral:1")) == order_profile(_build("cyclic:2"))
    assert order_profile(_build("dihedral:2")) == order_profile(_build("elemabelian:2^2"))


def test_semidirect_7_3_profile():
    g = _build("semidirect:7:3")
    assert g.order == 21
    assert order_profile(g) == Counter({1: 1, 7: 6, 3: 14})


def test_semidirect_invalid_pairs():
    with pytest.raises(InvalidSpec):
        _build("semidirect:7:5")  # 5 does not divide 6
    with pytest.raises(InvalidSpec):
        _build("semidirect:9:3")  # 9 not prime


def test_generalized_dihedral_18_profile():
    g = _build("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)")
    assert g.order == 18
    assert order_profile(g) == Counter({1: 1, 2: 9, 3: 8})


def test_direct_product_orders():
    z3 = _build("cyclic:3")
    z2 = _build("cyclic:2")
    g = direct_product(z3, z2)
    assert order_profile(g) == order_profile(_build("cyclic:6"))
    v4 = direct_product(z2, z2)
    assert all(o == 2 for o in element_orders(v4)[1:])
    g42 = direct_product(_build("cyclic:4"), z2)
    assert sorted(element_orders(g42)) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_direct_product_element_order_is_lcm():
    from math import lcm

    a = _build("cyclic:6")
    b = _build("sym:3")
    g = direct_product(a, b)
    assert g.order == 36
    orders, a_orders, b_orders = element_orders(g), element_orders(a), element_orders(b)
    for i in range(a.order):
        for j in range(b.order):
            assert orders[i * b.order + j] == lcm(a_orders[i], b_orders[j])


def test_spectrum():
    assert spectrum(_build("alt:4")) == ({1, 2, 3}, {2, 3})
    assert spectrum(_build("cyclic:12")) == ({1, 2, 3, 4, 6, 12}, {12})
    omega, _ = spectrum(_build("alt:5"))
    assert omega == {1, 2, 3, 5}


@pytest.mark.parametrize("text, limit", [
    ("sym:7", 1_200_000),
    ("dihedral:5000", 1_000_000),
    ("quaternion:2500", 1_000_000),
    ("product:(sym:5)x(cyclic:60)", 500_000),
])
def test_built_group_keeps_no_member_sets(text, limit):
    """A group keeps its poset record and each element's class, not one
    member set per cyclic subgroup (which retained 1.9 MB for sym:7 and
    4.2 MB for dihedral:5000), and only a permutation group keeps element
    objects (a tuple per element and an element-to-index dict retained
    2.2 MB for dihedral:5000, 1.8 MB for quaternion:2500 and 1.1 MB for
    the product; without them 0.6, 0.4 and 0.2 MB, and sym:7 0.8 MB)."""
    spec = parse_group_spec(text)
    tracemalloc.start()
    try:
        g = build(spec)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.order in (5040, 7200, 10000)
    assert retained <= limit, (text, retained)


def _walked_cyclic(n):
    """Z_n as the power walk numbers it, built element by element."""
    return FiniteGroup(f"Z_{n}", n, lambda a, b: (a + b) % n, str)


@pytest.mark.parametrize("ns", [range(1, 211), range(211, 421), (720, 5040, 9240, 10000)],
                         ids=["1-210", "211-420", "larger"])
def test_cyclic_classes_from_divisors_match_the_power_walk(ns):
    for n in ns:
        g, walked = build(GroupSpec("cyclic", (n,))), _walked_cyclic(n)
        assert g.cyclic_class == walked.cyclic_class, n
        assert g.poset == walked.poset, n


@pytest.mark.parametrize("kind", ["dihedral", "quaternion"])
def test_rotation_classes_match_the_multiply_walk(kind):
    # D_2n and Q_4n write their classes from the divisors of the rotations'
    # order; a plain FiniteGroup on the same multiply walks the powers
    for n in range(1, 301):
        g = build(GroupSpec(kind, (n,)))
        walked = FiniteGroup(g.name, g.order, g.multiply, str)
        assert g.cyclic_class == walked.cyclic_class, n
        assert g.poset == walked.poset, n


def multiply_walk(g, i):
    """The indices of i^0, i^1, ... up to the identity, by repeated multiply."""
    powers, y = [0], i
    while y != 0:
        powers.append(y)
        y = g.multiply(y, i)
    return powers


def check_powers(g):
    for i in range(g.order):
        assert g.powers(i) == multiply_walk(g, i), (g.name, i)


NESTED_PRODUCT_SPECS = [
    "product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))",
    "product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)",
    "product:(product:(sym:3)x(quaternion:2))x(product:(cyclic:4)x(dihedral:3))",
    "product:(semidirect:7:3)x(product:(elemabelian:2^2)x(alt:4))",
    "product:(perm:6:(1 2 3);(4 5 6);(2 3)(5 6))x(product:(quaternion:3)x(cyclic:5))",
]
POWERS_SPECS = {
    "partition": PARTITION_SPECS,
    "catalog": list(CATALOG_UP_TO_60),
    "nested": NESTED_PRODUCT_SPECS,
    "dihedral-2-200": [f"dihedral:{n}" for n in range(1, 101)],
    "quaternion-4-200": [f"quaternion:{n}" for n in range(1, 51)],
}


@pytest.mark.parametrize("texts", POWERS_SPECS.values(), ids=POWERS_SPECS.keys())
def test_powers_match_the_multiply_walk(texts):
    for text in texts:
        check_powers(_build(text))


def test_positions_match_the_gcd_loop():
    for m in range(1, 421):
        generators, inside = [], []
        for k in range(m):
            d = gcd(k, m)
            if d == 1:
                generators.append(k)
            elif d == k or d == m:
                inside.append(k)
        assert _positions(m) == (tuple(generators), tuple(inside)), m


def test_product_build_multiplies_only_to_check_the_identity(monkeypatch):
    calls = Counter()  # multiply calls per group name
    init = FiniteGroup.__init__

    def counting_init(self, name, order, mul, label):
        def counted(a, b):
            calls[name] += 1
            return mul(a, b)

        init(self, name, order, counted, label)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    g = _build("product:(sym:5)x(cyclic:60)")
    # each group checks its identity on at most three elements, both sides,
    # and each product multiply takes one multiply in each factor
    assert calls[g.name] <= 6
    assert calls["S_5"] <= 6 + calls[g.name] and calls["Z_60"] <= 6 + calls[g.name]


def test_cyclic_build_runs_no_power_walk(monkeypatch):
    def refuse(self):
        raise AssertionError("the power walk ran")

    monkeypatch.setattr(FiniteGroup, "_classes", refuse)
    g = _build("cyclic:420")
    assert g.poset.orders[:3] == (1, 420, 210)
    assert g.multiply(419, 2) == 1 and g.element_repr(5) == "x^5"
    assert _build("dihedral:500").poset.orders[-2:] == (2, 2)
    assert _build("quaternion:250").poset.orders[-2:] == (4, 4)
    with pytest.raises(AssertionError, match="power walk"):
        _build("semidirect:7:3")


def _rot_text(i, j):
    """The label of x^i y^j."""
    xs = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
    return xs if j == 0 else ("y" if i == 0 else f"{xs}y")


def _tuple_text(e):
    return "(" + ",".join(map(str, e)) + ")"


def tuple_reference(spec):
    """(elements, mul, label) of spec on the tuple elements that indices
    replaced, listed in the order that gave each element its index."""
    kind, params = spec.kind, spec.params
    if kind == "cyclic":
        (n,) = params
        return list(range(n)), lambda a, b: (a + b) % n, lambda e: _rot_text(e, 0)
    if kind in ("dihedral", "quaternion"):
        (n,) = params
        m, square = (n, 0) if kind == "dihedral" else (2 * n, n)

        def rot_mul(e1, e2):
            (i1, j1), (i2, j2) = e1, e2
            if j1 == 0:
                return ((i1 + i2) % m, j2)
            if j2 == 0:
                return ((i1 - i2) % m, 1)
            return ((i1 - i2 + square) % m, 0)

        return [(i, j) for j in (0, 1) for i in range(m)], rot_mul, lambda e: _rot_text(*e)
    if kind == "elemabelian":
        p, k = params
        return (list(iproduct(range(p), repeat=k)),
                lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), _tuple_text)
    if kind == "semidirect":
        p, q = params
        r = next(r for r in range(2, p) if pow(r, q, p) == 1)

        def pq_mul(e1, e2):
            (a1, b1), (a2, b2) = e1, e2
            return ((a1 + a2 * pow(r, b1, p)) % p, (b1 + b2) % q)

        return [(a, b) for a in range(p) for b in range(q)], pq_mul, _tuple_text
    assert kind == "product", kind
    (left, left_mul, left_text), (right, right_mul, right_text) = map(tuple_reference, spec.factors)
    return ([(a, b) for a in left for b in right],
            lambda e1, e2: (left_mul(e1[0], e2[0]), right_mul(e1[1], e2[1])),
            lambda e: f"({left_text(e[0])},{right_text(e[1])})")


TUPLE_REFERENCE_SPECS = (
    [f"dihedral:{n}" for n in range(1, 13)] + [f"quaternion:{n}" for n in range(1, 13)]
    + ["semidirect:7:3", "semidirect:13:3", "elemabelian:2^4", "elemabelian:3^3"]
    + [text for text in LABEL_SPECS if text.startswith("product:")]
)


@pytest.mark.parametrize("text", TUPLE_REFERENCE_SPECS)
def test_index_multiply_and_labels_match_the_tuple_rules(text):
    """multiply on indices and element_repr against the tuple elements each
    kind was once built on, mapped through their order: every pair."""
    g = _build(text)
    elements, mul, label = tuple_reference(parse_group_spec(text))
    index = {e: i for i, e in enumerate(elements)}
    assert g.order == len(index) == len(elements)
    assert [g.element_repr(i) for i in range(g.order)] == list(map(label, elements))
    for a, x in enumerate(elements):
        assert [g.multiply(a, b) for b in range(g.order)] == [index[mul(x, y)] for y in elements], (text, a)


def test_no_other_module_reads_a_groups_private_fields():
    """The element format is known to groups.py alone: no other module of
    the package reads a group's elements, index, label or multiplication."""
    private = re.compile(r"\._(elements|index|label|mul)\b")
    readers = [f"{path.name}:{n}: {line.strip()}"
               for path in sorted(Path(groups.__file__).parent.glob("*.py")) if path.name != "groups.py"
               for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if private.search(line)]
    assert readers == []


def test_no_module_imports_another_modules_private_name():
    """Each package module imports only the public names of the others."""
    imports = [f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
               for path in sorted(Path(groups.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def _nested_spec(depth):
    spec = GroupSpec("cyclic", (1,))
    for _ in range(depth):
        spec = GroupSpec("product", factors=(spec, GroupSpec("cyclic", (1,))))
    return spec


def test_deep_product_spec_is_invalid_on_build_and_render():
    deep = _nested_spec(1000)
    message = f"product nested more than {MAX_PRODUCT_DEPTH} deep"
    with pytest.raises(InvalidSpec, match=message):
        build(deep)
    with pytest.raises(InvalidSpec, match=message):
        deep.render()
    with pytest.raises(InvalidSpec, match=message):
        build(_nested_spec(MAX_PRODUCT_DEPTH + 1))
    limit = _nested_spec(MAX_PRODUCT_DEPTH)
    assert build(limit).order == 1
    assert parse_group_spec(limit.render()) == limit


def test_count_cyclic_subgroups():
    assert count_cyclic_subgroups(_build("alt:5"), 5) == 6
    assert count_cyclic_subgroups(_build("cyclic:9"), 3) == 1
    assert count_cyclic_subgroups(_build("alt:4"), 3) == 4
    assert count_cyclic_subgroups(_build("cyclic:9"), 2) == 0
    with pytest.raises(InvalidSpec, match="6 is not prime"):
        count_cyclic_subgroups(_build("cyclic:9"), 6)


def test_order_cap():
    with pytest.raises(TooLarge, match="Z_10001 has order 10001 > cap 10000"):
        _build("cyclic:10001")
    with pytest.raises(TooLarge, match="A_8 has order 20160 > cap 10000"):
        _build("alt:8")  # order 20160


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("KAPPA_MAX_ORDER", "30")
    with pytest.raises(TooLarge, match="Z_31 has order 31 > cap 30"):
        _build("cyclic:31")
    assert _build("cyclic:30").order == 30


def test_perm_degree_cap(capsys):
    with pytest.raises(InvalidSpec):
        _build("sym:9")
    with pytest.raises(InvalidSpec):
        _build("alt:9")
    # a perm degree above 256 is refused where it is read, before range(degree)
    for text in ("perm:257:(1 2)", "perm:99999999999999999999:(1 2)"):
        degree = text.split(":")[1]
        assert main(["kappa", text]) == 2
        assert capsys.readouterr() == ("", f"error: degree {degree} above 256 at position 5\n")
    assert main(["kappa", "perm:256:(1 256)"]) == 0
    assert capsys.readouterr() == ("1\n", "")
    big = GroupSpec("perm", (300,), generators=(tuple(range(1, 300)) + (0,),))
    empty = GroupSpec("perm", (0,), generators=((),))
    for spec, degree in ((big, 300), (empty, 0)):  # both checked in one place, render too
        for call in (lambda: build(spec), spec.render):
            with pytest.raises(InvalidSpec, match=f"degree must be 1..256, got {degree}$"):
                call()


def _old_cycle_notation(perm):
    """The list-and-join cycle writer that the bit-mask one replaced."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = perm[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def tuple_closure(degree, generators):
    """The image-tuple closure that byte strings replaced: breadth-first from
    the identity, each element composed with the generators in their order."""
    identity = tuple(range(degree))
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                h = tuple(g[x] for x in e)
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return elements


def assert_same_closure(spec: GroupSpec, generators=None):
    """build(spec) lists the permutations of the tuple closure at the same indices."""
    g = build(spec)
    reference = tuple_closure(spec.params[0], spec.generators if generators is None else generators)
    assert [tuple(e) for e in g._elements] == reference
    assert [g.element_repr(i) for i in range(g.order)] == list(map(_old_cycle_notation, reference))


def _cycle(points, m):
    """Image tuple of the cycle through the 0-based points, on m points."""
    images = list(range(m))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return tuple(images)


@pytest.mark.parametrize("m", range(1, 8))
def test_symmetric_closure_matches_tuple_reference(m):
    gens = []  # a transposition and an m-cycle, as _symmetric picks them
    if m >= 2:
        gens.append(_cycle([0, 1], m))
    if m >= 3:
        gens.append(_cycle(list(range(m)), m))
    assert_same_closure(GroupSpec("sym", (m,)), gens)


@pytest.mark.parametrize("m", range(3, 8))
def test_alternating_closure_matches_tuple_reference(m):
    # a 3-cycle and an even cycle, as _alternating picks them
    rest = list(range(m)) if m % 2 else list(range(1, m))
    gens = [_cycle([0, 1, 2], m), _cycle(rest, m)]
    assert_same_closure(GroupSpec("alt", (m,)), gens)


# every perm text in tests/, M11 on 11 points and the largest degree
PERM_TEXTS = [
    "perm:5:(1 2 3 4 5);(1 2 3)",
    "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
    "perm:4:(1 2)(3 4)",
    "perm:6:(1 2 3);(4 5 6)",
    "perm:4:(1 2);(3 4)",
    "perm:3:(1 2)",
    "perm:11:(1 2 3 4 5 6 7 8 9 10 11);(3 7 11 8)(4 10 5 6)",
    "perm:256:(1 256)",
]


@pytest.mark.parametrize("text", PERM_TEXTS)
def test_perm_closure_matches_tuple_reference(text):
    assert_same_closure(parse_group_spec(text))


def test_psl_closures_match_tuple_reference():
    from test_classify import _psl2_spec, _psl32_spec

    for spec in [_psl2_spec(p) for p in (5, 7, 11, 13, 17, 19, 23)] + [_psl32_spec()]:
        assert_same_closure(spec)


def test_compose_applies_the_first_then_the_second_on_s4():
    s4 = list(permutations(range(4)))
    for a in s4:
        for b in s4:
            ab = _compose(bytes(a), bytes(b))
            assert len(ab) == 4 and all(ab[i] == b[a[i]] for i in range(4))


def test_cycle_notation_matches_the_old_writer_on_s7():
    for perm in permutations(range(7)):
        old = _old_cycle_notation(perm)
        assert _cycle_notation(perm) == old == _cycle_notation(bytes(perm))


def test_oracle_multiplication_sym7():
    g = _build("sym:7")
    assert g.order == 5040
    assert max(g.poset.orders) == 12  # lcm(3, 4) from a 3-cycle times a 4-cycle
    assert sorted(set(g.poset.orders)) == [1, 2, 3, 4, 5, 6, 7, 10, 12]
    for a in (0, 7, 919, 5039):
        assert g.multiply(a, 0) == a
        assert _has_inverse(g, a)


@pytest.mark.parametrize("spec", ["sym:5", "sym:7", "product:(sym:5)x(cyclic:12)"])
def test_group_axioms_sampled_above_64(spec):
    import random

    g = _build(spec)
    assert g.order > 64
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
        assert g.multiply(0, a) == a and g.multiply(a, 0) == a
    for _ in range(40):
        a = rng.randrange(g.order)
        assert _has_inverse(g, a)


def test_invalid_parameters():
    with pytest.raises(InvalidSpec):
        build(GroupSpec("cyclic", (0,)))
    with pytest.raises(InvalidSpec):
        build(GroupSpec("elemabelian", (4, 2)))
    with pytest.raises(InvalidSpec):
        build(GroupSpec("elemabelian", (3, 0)))
    with pytest.raises(InvalidSpec):
        build(GroupSpec("perm", (3,), generators=((0, 0, 1),)))


def test_finite_group_refuses_no_identity():
    with pytest.raises(InvalidSpec, match="^a group needs at least the identity element$"):
        FiniteGroup("E", 0, lambda a, b: 0, str)
    with pytest.raises(InvalidSpec, match="^element 0 of Z_3' is not the identity$"):
        FiniteGroup("Z_3'", 3, lambda a, b: (a + b + 1) % 3, str)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec("elemabelian", (3,)),
        GroupSpec("semidirect", (7,)),
        GroupSpec("cyclic", ()),
        GroupSpec("cyclic", (3, 4)),
        GroupSpec("product"),
        GroupSpec("product", factors=(GroupSpec("cyclic", (2,)),)),
        GroupSpec("perm"),
        GroupSpec("nosuch", (3,)),
        GroupSpec("cyclic", ("3",)),
        GroupSpec("cyclic", (3.5,)),
        GroupSpec("cyclic", (True,)),
        GroupSpec("product", factors=(GroupSpec("cyclic", (2,)), "x")),
        GroupSpec("cyclic", 3),
        GroupSpec("perm", (3,), generators=((0, 1, "2"),)),
        GroupSpec("perm", (3,), generators=(5,)),
        GroupSpec(["cyclic"], (3,)),
        GroupSpec("product", factors=5),
        GroupSpec("perm", (3,), generators=5),
        GroupSpec("cyclic", (3,), generators=((0,),)),  # would render as cyclic:3
        GroupSpec("perm", (3,)),  # would render as perm:3:, which does not parse
        GroupSpec("perm", (3,), generators=((1, 0),)),  # would render as perm:3:(1 2)
    ],
)
def test_malformed_spec_is_typed_on_build_and_render(spec):
    with pytest.raises(InvalidSpec):
        build(spec)
    with pytest.raises(InvalidSpec):
        spec.render()


# Reprs as the records printed them when they were dataclasses; InvalidSpec
# messages embed them, so they are pinned.
SPEC_REPRS = {
    "cyclic:12": "GroupSpec(kind='cyclic', params=(12,), factors=(), generators=())",
    "product:(cyclic:3)x(dihedral:4)": (
        "GroupSpec(kind='product', params=(), factors=("
        "GroupSpec(kind='cyclic', params=(3,), factors=(), generators=()), "
        "GroupSpec(kind='dihedral', params=(4,), factors=(), generators=())), generators=())"
    ),
    "perm:4:(1 2);(3 4)": (
        "GroupSpec(kind='perm', params=(4,), factors=(), "
        "generators=((1, 0, 2, 3), (0, 1, 3, 2)))"
    ),
}


@pytest.mark.parametrize("text", sorted(SPEC_REPRS))
def test_spec_repr_hash_and_immutability(text):
    spec = parse_group_spec(text)
    assert repr(spec) == SPEC_REPRS[text]
    again = parse_group_spec(spec.render())
    assert again == spec and hash(again) == hash(spec)
    with pytest.raises(AttributeError):
        spec.kind = "cyclic"
    with pytest.raises(AttributeError):
        spec.params = (5,)


def test_build_m_is_dicyclic_of_order_12():
    # the nonabelian order-12 group with x^4 = y^3 = 1, yx = xy^2 has a
    # unique involution, matching the dicyclic group and neither A_4 nor D_12
    g = _build("quaternion:3")
    assert g.order == 12
    assert element_orders(g).count(2) == 1
    assert order_profile(g) == Counter({1: 1, 2: 1, 3: 2, 4: 6, 6: 2})
