import random
from fractions import Fraction
from math import prod

import pytest

from powertree.errors import DiscrepancyDetected, TooLarge, TrivialGroup
from powertree.groups import GroupSpec, build
from powertree.numutil import format_decimal
from powertree.powergraph import power_graph, reduced_power_graph
from powertree.specparse import parse_group_spec
from powertree.table1 import GOLDEN_ROWS
from powertree.treecount import (
    FACTOR_VALUE_LIMIT,
    MultiGraph,
    TreeNumber,
    block_decomposition_kappa,
    deletion_contraction_kappa,
    enumerate_spanning_trees,
    exact_integer_determinant,
    quotient_kappa,
    temperley_kappa,
)

from randgraphs import random_connected_multigraph


def _graph(text, reduced=False):
    g = build(parse_group_spec(text))
    return reduced_power_graph(g) if reduced else power_graph(g)


def _k(n):
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cofactor_det(mat):
    """Independent oracle: recursive cofactor expansion over Fractions."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * Fraction(mat[0][j]) * _cofactor_det(minor)
    return total


# --- exact determinant -------------------------------------------------------


def test_determinant_identity():
    assert exact_integer_determinant([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 1


def test_determinant_equal_rows():
    assert exact_integer_determinant([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0


def test_determinant_small_cases():
    assert exact_integer_determinant([]) == 1
    assert exact_integer_determinant([[7]]) == 7
    assert exact_integer_determinant([[1, 2], [3, 4]]) == -2
    assert exact_integer_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_needs_square():
    with pytest.raises(ValueError):
        exact_integer_determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_pivot_swap():
    mat = [[0, 2, 1], [3, 0, 0], [1, 1, 1]]
    assert exact_integer_determinant(mat) == _cofactor_det(mat)


def test_determinant_z12_tridiagonal():
    # the middle-divisor matrix of 12 scaled row-wise to integers; the
    # rational tridiagonal original has determinant 786
    scaled = [[10, 2, 0, 0], [2, 8, 2, 0], [0, 2, 9, 2], [0, 0, 1, 10]]
    rational = [
        [Fraction(5), 1, 0, 0],
        [1, Fraction(4), 1, 0],
        [0, 1, Fraction(9, 2), 1],
        [0, 0, 1, Fraction(10)],
    ]
    oracle = _cofactor_det(rational)
    assert oracle == Fraction(786)
    assert exact_integer_determinant(scaled) == oracle * 2 * 2 * 2 * 1


def test_determinant_matches_cofactor_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert exact_integer_determinant(mat) == _cofactor_det(mat)


# --- temperley ---------------------------------------------------------------


def test_temperley_triangle():
    assert temperley_kappa(_k(3)).value == 3


def test_temperley_single_vertex():
    assert temperley_kappa(MultiGraph(1)).value == 1


def test_temperley_power_graph_z6():
    assert temperley_kappa(_graph("cyclic:6")).value == 540


def test_temperley_disconnected_is_zero():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    assert temperley_kappa(g).value == 0


def test_temperley_cayley():
    for n in range(1, 13):
        assert temperley_kappa(_k(n)).value == n ** max(n - 2, 0)


# --- enumeration -------------------------------------------------------------


def test_enumerate_k4():
    assert enumerate_spanning_trees(_k(4)).value == 16


def test_enumerate_path():
    path = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert enumerate_spanning_trees(path).value == 1


def test_enumerate_klein_four_power_graph():
    assert enumerate_spanning_trees(_graph("elemabelian:2^2")).value == 1


def test_enumerate_parallel_edges_counted_distinct():
    g = MultiGraph(2, [(0, 1, 2)])
    assert enumerate_spanning_trees(g).value == 2


def test_enumerate_cap():
    big = MultiGraph(
        13,
        [(i, i + 1) for i in range(12)]
        + [(0, j) for j in range(2, 13)]
        + [(1, 3), (1, 4)],
    )
    assert big.vertex_count > 12 and big.edge_count() > 24
    with pytest.raises(TooLarge):
        enumerate_spanning_trees(big)


# --- deletion-contraction ----------------------------------------------------


def test_deletion_contraction_triangle():
    assert deletion_contraction_kappa(_k(3)).value == 3


def test_deletion_contraction_double_edge():
    g = MultiGraph(2, [(0, 1, 2)])
    assert deletion_contraction_kappa(g).value == 2


def test_deletion_contraction_s3():
    assert deletion_contraction_kappa(_graph("sym:3")).value == 3


def test_deletion_contraction_cap():
    with pytest.raises(TooLarge):
        deletion_contraction_kappa(MultiGraph(15))


# --- block decomposition -----------------------------------------------------


def test_block_decomposition_q8_reduced():
    assert block_decomposition_kappa(_graph("quaternion:2", reduced=True)).value == 27


def test_block_decomposition_dihedral_strips_pendants():
    from powertree.closedform import kappa_cyclic

    for n in range(1, 13):
        graph = _graph(f"dihedral:{n}")
        assert block_decomposition_kappa(graph).value == kappa_cyclic(n).value


def test_block_decomposition_tree():
    star = MultiGraph(5, [(0, i) for i in range(1, 5)])
    assert block_decomposition_kappa(star).value == 1


def test_block_decomposition_disconnected_is_zero():
    assert block_decomposition_kappa(MultiGraph(3, [(0, 1)])).value == 0


def test_block_decomposition_matches_temperley_on_catalog():
    specs = [
        "cyclic:30", "dihedral:12", "quaternion:6", "sym:4", "alt:4",
        "semidirect:7:3", "product:(cyclic:6)x(cyclic:2)", "elemabelian:3^3",
    ]
    for text in specs:
        graph = _graph(text)
        assert (
            block_decomposition_kappa(graph).value
            == temperley_kappa(graph).value
        ), text


def test_block_decomposition_carries_multiplicities():
    # a bridge of multiplicity m is one K_2 block counting m trees, not m edges
    g = MultiGraph(3, [(0, 1, 2**62), (1, 2, 3)])
    assert block_decomposition_kappa(g).value == 3 * 2**62 == temperley_kappa(g).value


def test_block_decomposition_with_deletion_contraction_inner():
    graph = _graph("dihedral:6")
    value = block_decomposition_kappa(graph, inner=deletion_contraction_kappa)
    assert value.value == temperley_kappa(graph).value == 540


def test_cut_edge_contraction_preserves_kappa():
    # pendant identity-reflection edges of dihedral power graphs
    from powertree.treecount import as_multigraph

    for n in (3, 5):
        g = build(parse_group_spec(f"dihedral:{n}"))
        graph = as_multigraph(power_graph(g))
        base = temperley_kappa(graph).value
        for reflection in range(n, 2 * n):
            contracted = graph.contracted(0, reflection)
            assert temperley_kappa(contracted).value == base


def test_oracle_triangle_random_multigraphs():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_connected_multigraph(rng)
        a = temperley_kappa(g).value
        b = deletion_contraction_kappa(g).value
        c = enumerate_spanning_trees(g).value
        assert a == b == c, g


def test_block_decomposition_random_multigraphs():
    # random shapes exercise bridges, parallel edges and nested blocks
    rng = random.Random(515)
    for _ in range(80):
        g = random_connected_multigraph(rng)
        assert (
            block_decomposition_kappa(g).value == temperley_kappa(g).value
        ), g


def test_three_methods_on_small_power_graphs():
    for text in ["sym:3", "dihedral:4", "alt:4", "cyclic:6", "quaternion:2",
                 "elemabelian:2^3"]:
        graph = _graph(text)
        a = temperley_kappa(graph).value
        b = deletion_contraction_kappa(graph).value
        c = enumerate_spanning_trees(graph).value
        d = block_decomposition_kappa(graph).value
        assert a == b == c == d, text


def test_block_decomposition_a6_fast_route():
    # the 360-vertex graph splits at the identity into 45 K_4, 40 K_3 and
    # 36 K_5 blocks, giving the count in milliseconds
    graph = _graph("alt:6")
    result = block_decomposition_kappa(graph)
    assert result.value == 2**180 * 3**40 * 5**108


# --- cyclic-subgroup quotient ------------------------------------------------


def _assert_quotient_matches_determinant(text):
    g = build(parse_group_spec(text))
    assert quotient_kappa(g).value == temperley_kappa(power_graph(g)).value, text
    if g.order >= 2:
        reduced = temperley_kappa(reduced_power_graph(g)).value
        assert quotient_kappa(g, reduced=True).value == reduced, text


def test_quotient_matches_determinant_on_golden_table():
    for row in GOLDEN_ROWS:
        _assert_quotient_matches_determinant(row.spec)


@pytest.mark.parametrize("family", ["dihedral", "quaternion"])
def test_quotient_matches_determinant_dihedral_dicyclic(family):
    for n in range(1, 16):
        _assert_quotient_matches_determinant(f"{family}:{n}")


@pytest.mark.parametrize("text", ["alt:4", "sym:4", "alt:5", "sym:5"])
def test_quotient_matches_determinant_permutation_groups(text):
    _assert_quotient_matches_determinant(text)


def _dense_quotient_kappa(group, reduced=False):
    """Reference: the quotient as a MultiGraph, counted by det(J+Q)/n^2."""
    subgroups, cls = group.cyclic_subgroups, group.cyclic_class
    sizes = [0] * len(subgroups)
    for c in cls:
        sizes[c] += 1
    drop = 1 if reduced else 0
    quotient = MultiGraph(len(sizes) - drop)
    up = [0] * len(sizes)
    for c, s in enumerate(subgroups):
        for b in {cls[y] for y in s} - {c}:
            up[b] += sizes[c]
            if b >= drop:
                quotient.add_edge(c - drop, b - drop, sizes[c] * sizes[b])
    kept = range(drop, len(sizes))
    num = temperley_kappa(quotient).value * prod(
        (len(subgroups[c]) - drop + up[c]) ** (sizes[c] - 1) for c in kept
    )
    value, rem = divmod(num, prod(sizes[c] for c in kept))
    assert rem == 0
    return value


@pytest.mark.parametrize("text", ["alt:6", "dihedral:180", "quaternion:90"])
def test_quotient_matches_dense_quotient(text):
    g = build(parse_group_spec(text))
    for reduced in (False, True):
        assert quotient_kappa(g, reduced).value == _dense_quotient_kappa(g, reduced), text


def test_quotient_matches_block_product_a6():
    g = build(parse_group_spec("alt:6"))
    assert quotient_kappa(g) == block_decomposition_kappa(power_graph(g))
    # the identity is a cut vertex, so the reduced graph falls apart
    assert block_decomposition_kappa(reduced_power_graph(g)) == 0
    assert quotient_kappa(g, reduced=True) == 0


def test_quotient_reduced_trivial_group():
    with pytest.raises(TrivialGroup):
        quotient_kappa(build(parse_group_spec("cyclic:1")), reduced=True)


# --- MultiGraph and TreeNumber -----------------------------------------------


def test_multigraph_validation():
    g = MultiGraph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 0)


def test_multigraph_contraction_merges_multiplicities():
    g = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    c = g.contracted(1, 2)
    assert c.vertex_count == 2
    assert c.multiplicity(0, 1) == 2  # the (1,2) edge became a dropped loop


def test_multigraph_without_edge():
    g = MultiGraph(3, [(0, 1, 2), (1, 2)])
    h = g.without_edge(0, 1)
    assert h.multiplicity(0, 1) == 0
    assert h.multiplicity(1, 2) == 1
    assert g.multiplicity(0, 1) == 2  # original untouched


def test_treenumber_factored_strings():
    assert TreeNumber(0).factored() == "0"
    assert TreeNumber(1).factored() == "1"
    assert TreeNumber(540).factored() == "2^2*3^3*5"
    assert TreeNumber.from_powers("t", [(6, 3), (5, 1), (2, -1)]).factored() == "2^2*3^3*5"


def test_treenumber_symbolic_factors_validated():
    with pytest.raises(DiscrepancyDetected):
        TreeNumber.from_powers("t", [(10, 1), (3, -1)])
    with pytest.raises(DiscrepancyDetected):
        TreeNumber(-1)
    # past the int-to-str digit limit the message still formats
    with pytest.raises(DiscrepancyDetected):
        TreeNumber.from_powers("t", [(10**5000 + 1, 1), (2, -1)])


def test_treenumber_multiplication():
    a = TreeNumber.from_powers("a", [(2, 2), (3, 1)])
    b = TreeNumber.from_powers("b", [(3, 3)])
    c = a * b
    assert c.value == 324
    assert c.factorization == {2: 2, 3: 4}
    assert a == 12 and a != 13
    # a bare count past FACTOR_VALUE_LIMIT stays unfactored in a product
    assert (a * TreeNumber(FACTOR_VALUE_LIMIT + 1)).factorization is None
    assert (a * TreeNumber(FACTOR_VALUE_LIMIT)).factorization == {2: 152, 3: 1, 5: 150}


def test_treenumber_renders_past_the_digit_limit():
    # both raised an untyped int-to-str ValueError before
    assert repr(TreeNumber(10**5000)) == f"TreeNumber(1{'0' * 5000})"
    count = quotient_kappa(build(GroupSpec("cyclic", (1500,))))
    assert count.factorization is None
    assert count.factored() == format_decimal(count.value)
