import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from powertree import powergraph, treecount
from powertree.errors import DiscrepancyDetected, TooLarge, TrivialGroup
from powertree.groups import GroupSpec, build
from powertree.numutil import format_decimal, is_prime
from powertree.powergraph import power_graph, reduced_power_graph
from powertree.specparse import parse_group_spec
from powertree.table1 import GOLDEN_ROWS
from powertree.treecount import (
    FACTOR_VALUE_LIMIT,
    MultiGraph,
    TreeNumber,
    _root_deleted_determinant,
    block_decomposition_kappa,
    connected,
    exact_integer_determinant,
    quotient_kappa,
    temperley_kappa,
)

from randgraphs import random_connected_multigraph
from test_groups import _closures_by_multiply
from treeoracles import (
    RESIDUE_PRIMES,
    contracted,
    cyclic_poset,
    deletion_contraction_kappa,
    enumerate_spanning_trees,
    residue_kappa,
    without_edge,
)


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
    with pytest.raises(ValueError, match="at least one vertex"):
        temperley_kappa(MultiGraph(0))


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


def test_block_decomposition_matches_deletion_contraction():
    graph = _graph("dihedral:6")
    assert graph.vertex_count == 12
    value = block_decomposition_kappa(graph)
    assert value.value == deletion_contraction_kappa(graph).value == 540


def _no_conversion(graph):
    raise AssertionError("the graph was converted before the pre-check")


def test_block_decomposition_refuses_from_the_poset(monkeypatch):
    # a block of b <= 360 vertices holds at most 180 (b - 1) edges, and the
    # b - 1 sum to n - 1, so 1 777 660 edges on 2000 vertices need a larger block
    graph = _graph("cyclic:2000")
    monkeypatch.setattr(treecount, "as_multigraph", _no_conversion)
    monkeypatch.setattr(powergraph, "_closed_neighbourhoods", _no_conversion)
    with pytest.raises(TooLarge, match="capped at dimension 360; 1777660 edges on 2000"):
        block_decomposition_kappa(graph)


def test_block_decomposition_counts_a_disconnected_poset_as_zero(monkeypatch):
    # 443 817 edges, over the bound, but disconnected: 0 before any cap
    graph = _graph("dihedral:1000", reduced=True)
    monkeypatch.setattr(treecount, "as_multigraph", _no_conversion)
    monkeypatch.setattr(powergraph, "_closed_neighbourhoods", _no_conversion)
    assert block_decomposition_kappa(graph).value == 0


def test_block_decomposition_under_the_edge_bound_finds_its_blocks():
    # cyclic:400 has 70 960 edges, under 180 * 399; its one block has 400 vertices
    with pytest.raises(TooLarge, match="capped at dimension 360, got 400"):
        block_decomposition_kappa(_graph("cyclic:400"))


def test_block_decomposition_under_the_edge_bound_counts_every_block(monkeypatch):
    graph = _graph("sym:6")
    assert 2 * graph.edge_count() <= 360 * (graph.vertex_count - 1)
    blocks = []

    def recording_kappa(sub):
        blocks.append(sub.vertex_count)
        return TreeNumber(1)

    monkeypatch.setattr(treecount, "temperley_kappa", recording_kappa)
    assert block_decomposition_kappa(graph) == 1
    assert max(blocks) <= 360
    assert sum(b - 1 for b in blocks) == graph.vertex_count - 1


def test_cut_edge_contraction_preserves_kappa():
    # pendant identity-reflection edges of dihedral power graphs
    from powertree.treecount import as_multigraph

    for n in (3, 5):
        g = build(parse_group_spec(f"dihedral:{n}"))
        graph = as_multigraph(power_graph(g))
        base = temperley_kappa(graph).value
        for reflection in range(n, 2 * n):
            merged = contracted(graph, 0, reflection)
            assert temperley_kappa(merged).value == base


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
    assert quotient_kappa(g.poset).value == temperley_kappa(power_graph(g)).value, text
    if g.order >= 2:
        reduced = temperley_kappa(reduced_power_graph(g)).value
        assert quotient_kappa(g.poset, reduced=True).value == reduced, text


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
    """Reference: the quotient as a MultiGraph, counted by det(J+Q)/n^2. Its
    classes, sizes and inclusions come from member sets found by multiplying,
    not from the group's poset record."""
    generators = Counter(_closures_by_multiply(group))  # the identity's {0} first
    subgroups, sizes = list(generators), list(generators.values())
    drop = 1 if reduced else 0
    quotient = MultiGraph(len(sizes) - drop)
    up = [0] * len(sizes)
    for c, s in enumerate(subgroups):
        for b, inner in enumerate(subgroups):
            if inner < s:
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


@pytest.mark.parametrize(
    "text", ["alt:6", "dihedral:180", "quaternion:90", "sym:5", "product:(sym:4)x(cyclic:6)"]
)
def test_quotient_matches_dense_quotient(text):
    g = build(parse_group_spec(text))
    for reduced in (False, True):
        assert quotient_kappa(g.poset, reduced).value == _dense_quotient_kappa(g, reduced), text


def test_quotient_needs_only_the_poset_record():
    """Z_n's record written from the divisors of n, with no group, counts
    what the closed form does for n = 1..420."""
    from powertree.closedform import kappa_cyclic

    for n in range(1, 421):
        poset = cyclic_poset(n)
        assert quotient_kappa(poset).value == kappa_cyclic(n).value, n
        if n > 1:
            assert quotient_kappa(poset, reduced=True).value == kappa_cyclic(n, reduced=True).value, n


@pytest.mark.parametrize(
    "text", ["cyclic:1", "cyclic:12", "dihedral:30", "quaternion:6", "sym:4", "alt:5", "elemabelian:2^4"]
)
def test_residue_oracle_matches_the_determinant(text):
    assert all(map(is_prime, RESIDUE_PRIMES))
    g = build(parse_group_spec(text))
    kappa = temperley_kappa(power_graph(g)).value
    assert [residue_kappa(g, p) for p in RESIDUE_PRIMES] == [kappa % p for p in RESIDUE_PRIMES]


@pytest.mark.parametrize("text", ["sym:7", "alt:7"])
def test_quotient_matches_the_residue_oracle_above_the_dense_cap(text):
    # 5 040 and 2 520 vertices, past the dense routes, and no closed form applies
    g = build(parse_group_spec(text))
    kappa = quotient_kappa(g.poset).value
    assert [residue_kappa(g, p) for p in RESIDUE_PRIMES] == [kappa % p for p in RESIDUE_PRIMES]


def _root_deleted_oracle(n, edges):
    """The weighted Laplacian with vertex 0 deleted, by cofactor expansion."""
    lap = [[0] * n for _ in range(n)]
    for u, v, w in edges:
        lap[u][v] -= w
        lap[v][u] -= w
        lap[u][u] += w
        lap[v][v] += w
    det = _cofactor_det([row[1:] for row in lap[1:]])
    assert det.denominator == 1
    return det.numerator


def _weighted_adj(n, edges):
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = -w
    return adj


# (pivots, Schur updates) of quotient_kappa's elimination, full and reduced,
# counted before products listed their powers from their factors' powers.
# They move only when the class numbering or the elimination order changes.
# P*(S_7), P*(A_7), P*(Z_2^13) and P*(D_10000) are disconnected, so their
# first pivot is zero. A pivot with k neighbours counts k(k + 1)/2 updates,
# its diagonal entries included; counting only the k(k - 1)/2 off-diagonal
# ones gives 171 793 for Z_10×Z_30×Z_30's full graph.
ELIMINATION_WORK = [
    ("sym:7", (2038, 9380), (0, 0)),
    ("alt:7", (946, 525), (0, 0)),
    ("elemabelian:2^13", (8191, 0), (0, 0)),
    ("dihedral:5000", (5019, 555), (0, 0)),
    ("quaternion:2500", (2519, 3055), (2518, 427)),
    ("cyclic:9240", (63, 13744), (62, 12588)),
    ("product:(sym:5)x(cyclic:60)", (1091, 27068), (1090, 22348)),
    ("product:(alt:6)x(cyclic:24)", (1675, 15850), (1674, 11879)),
    ("product:(dihedral:12)x(cyclic:360)", (511, 51733), (510, 46887)),
    ("product:(cyclic:6)x(product:(cyclic:30)x(cyclic:30))", (783, 214179), (782, 205050)),
    ("product:(cyclic:10)x(product:(cyclic:30)x(cyclic:30))", (1279, 187471), (1278, 173067)),
]


@pytest.mark.parametrize("text, full, reduced", ELIMINATION_WORK, ids=[w[0] for w in ELIMINATION_WORK])
def test_elimination_work_is_pinned(text, full, reduced, monkeypatch):
    counted = []
    kernel = treecount._root_deleted_determinant

    def counting(adj, kept):
        result = kernel(adj, kept)
        counted.append(result[1:])
        return result

    monkeypatch.setattr(treecount, "_root_deleted_determinant", counting)
    poset = build(parse_group_spec(text)).poset
    quotient_kappa(poset)
    quotient_kappa(poset, reduced=True)
    assert counted == [full, reduced]


def test_root_deleted_determinant_on_weighted_graphs():
    # the root is 0; pivots 5 (vertex 1) and 12 (vertex 3) leave vertex 2 the
    # fractional pivot 9 - 9/5 - 25/12 = 307/60, and 5 * 12 * 307/60 = 307
    cycle = [(0, 1, 2), (1, 2, 3), (2, 3, 5), (3, 0, 7), (0, 2, 1)]
    assert _root_deleted_determinant(_weighted_adj(4, cycle), range(4)) == (307, 3, 2)
    assert _root_deleted_oracle(4, cycle) == 307
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [
            (u, v, rng.randint(1, 9))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        got = _root_deleted_determinant(_weighted_adj(n, edges), range(n))[0]
        assert got == _root_deleted_oracle(n, edges), edges
    # two components: a zero pivot, and the count is 0
    split = [(0, 1, 4), (0, 2, 3), (1, 2, 2), (3, 4, 6)]
    assert _root_deleted_determinant(_weighted_adj(5, split), range(5))[0] == 0
    assert _root_deleted_oracle(5, split) == 0


def test_quotient_matches_block_product_a6():
    g = build(parse_group_spec("alt:6"))
    assert quotient_kappa(g.poset) == block_decomposition_kappa(power_graph(g))
    # the identity is a cut vertex, so the reduced graph falls apart
    assert block_decomposition_kappa(reduced_power_graph(g)) == 0
    assert quotient_kappa(g.poset, reduced=True) == 0


def test_quotient_reduced_trivial_group():
    with pytest.raises(TrivialGroup):
        quotient_kappa(build(parse_group_spec("cyclic:1")).poset, reduced=True)


# --- MultiGraph and TreeNumber -----------------------------------------------


def test_multigraph_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        MultiGraph(-1)
    g = MultiGraph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 0)


def test_connected_searches_from_vertex_0():
    assert connected(0, []) and connected(1, [])
    assert not connected(2, [])
    assert connected(4, [(2, 3), (0, 2), (3, 1), (1, 3)])  # a pair may repeat
    assert not connected(4, [(0, 1), (2, 3)])
    assert not connected(3, [(1, 2)])  # vertex 0 alone


def test_multigraph_contraction_merges_multiplicities():
    g = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    c = contracted(g, 1, 2)
    assert c.vertex_count == 2
    assert c.multiplicity(0, 1) == 2  # the (1,2) edge became a dropped loop


def test_multigraph_without_edge():
    g = MultiGraph(3, [(0, 1, 2), (1, 2)])
    h = without_edge(g, 0, 1)
    assert h.multiplicity(0, 1) == 0
    assert h.multiplicity(1, 2) == 1
    assert g.multiplicity(0, 1) == 2  # original untouched
    assert repr(h) == "MultiGraph(n=3, edges=[(1, 2, 1)])"


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
    assert a == 12 and a != 13 and int(a) == 12
    assert (a == "12") is False  # neither side compares a TreeNumber with text
    with pytest.raises(TypeError):
        a * 2  # only a TreeNumber, with its pairs, multiplies a TreeNumber
    # a bare count past FACTOR_VALUE_LIMIT stays unfactored in a product
    assert (a * TreeNumber(FACTOR_VALUE_LIMIT + 1)).factorization is None
    assert (a * TreeNumber(FACTOR_VALUE_LIMIT)).factorization == {2: 152, 3: 1, 5: 150}


def test_treenumber_renders_past_the_digit_limit():
    # both raised an untyped int-to-str ValueError before
    assert repr(TreeNumber(10**5000)) == f"TreeNumber(1{'0' * 5000})"
    count = quotient_kappa(build(GroupSpec("cyclic", (1500,))).poset)
    assert count.factorization is None
    assert count.factored() == format_decimal(count.value)
