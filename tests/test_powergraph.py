from collections import Counter

import pytest

from powertree.errors import OutOfRange, TooLarge, TrivialGroup
from powertree.groups import build, count_cyclic_subgroups
from powertree.numutil import factorize
from powertree.powergraph import (
    clique_number,
    degree_in_cyclic,
    is_complete,
    power_graph,
    reduced_power_graph,
    to_dot,
    to_json,
)
from powertree.specparse import parse_group_spec


def _graph(text, reduced=False):
    g = build(parse_group_spec(text))
    return reduced_power_graph(g) if reduced else power_graph(g)


def _pairwise_rows(g, reduced=False):
    """Reference adjacency: x ~ y iff x lies in <y> or y lies in <x>, pair by pair."""
    closures = g.cyclic_closure
    first = 1 if reduced else 0
    rows = [0] * (g.order - first)
    for i in range(first, g.order):
        for j in range(i + 1, g.order):
            if i in closures[j] or j in closures[i]:
                rows[i - first] |= 1 << (j - first)
                rows[j - first] |= 1 << (i - first)
    return rows


def _bitwise_edges(graph):
    """Reference edge list: every pair u < v whose bit is set, in order."""
    n = graph.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if graph.rows[u] >> v & 1]


# the non-reduced catalog-dense benchmark groups, all of order <= 168
ORACLE_SPECS = [f"cyclic:{n}" for n in range(1, 61)] + [
    "cyclic:120", "cyclic:168", "dihedral:30", "dihedral:60", "dihedral:84",
    "quaternion:15", "quaternion:30", "quaternion:32", "alt:4", "alt:5",
    "sym:4", "sym:5", "elemabelian:3^4", "elemabelian:5^3",
    "semidirect:13:3", "semidirect:31:5", "product:(sym:4)x(cyclic:6)",
    "product:(alt:4)x(cyclic:5)", "product:(quaternion:2)x(cyclic:9)",
    "product:(cyclic:6)x(cyclic:6)", "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
]


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_power_graph_rows_match_pairwise_rule(text):
    g = build(parse_group_spec(text))
    assert power_graph(g).rows == _pairwise_rows(g)
    if g.order >= 2:
        assert reduced_power_graph(g).rows == _pairwise_rows(g, reduced=True)


@pytest.mark.parametrize(
    "text", ["cyclic:12", "cyclic:60", "dihedral:30", "quaternion:15", "sym:5"]
)
def test_edges_match_bitwise_pairs(text):
    for graph in (_graph(text), _graph(text, reduced=True)):
        assert list(graph.edges()) == _bitwise_edges(graph)


def _components(graph):
    """Connected components as sorted vertex tuples."""
    n = graph.vertex_count
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and graph.is_adjacent(v, w):
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def test_klein_four_power_graph_is_star():
    graph = _graph("elemabelian:2^2")
    assert graph.vertex_count == 4
    assert sorted(graph.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert graph.degree(0) == 3


def test_z4_power_graph_complete():
    graph = _graph("cyclic:4")
    assert is_complete(graph)
    assert graph.edge_count() == 6


def test_a4_power_graph_shape():
    # one universal vertex over three isolated involutions and four
    # order-3 edges
    graph = _graph("alt:4")
    assert graph.degree(0) == 11
    reduced = _graph("alt:4", reduced=True)
    sizes = Counter(len(c) for c in _components(reduced))
    assert sizes == Counter({1: 3, 2: 4})


def test_reduced_klein_four_is_isolated():
    reduced = _graph("elemabelian:2^2", reduced=True)
    assert reduced.vertex_count == 3
    assert reduced.edge_count() == 0


def test_reduced_q8_shape():
    reduced = _graph("quaternion:2", reduced=True)
    assert reduced.vertex_count == 7
    center = [v for v in range(7) if reduced.degree(v) == 6]
    assert len(center) == 1


def test_reduced_z6_connected():
    reduced = _graph("cyclic:6", reduced=True)
    assert reduced.vertex_count == 5
    assert len(_components(reduced)) == 1


def test_reduced_power_graph_trivial_group():
    with pytest.raises(TrivialGroup):
        _graph("cyclic:1", reduced=True)


def test_degree_formula_examples():
    assert degree_in_cyclic(12, 2) == 9
    assert degree_in_cyclic(12, 3) == 7
    for n in (1, 2, 7, 12, 36):
        assert degree_in_cyclic(n, 0) == n - 1
    with pytest.raises(OutOfRange):
        degree_in_cyclic(12, 12)
    with pytest.raises(OutOfRange):
        degree_in_cyclic(0, 0)


def test_degree_formula_matches_graph_up_to_100():
    for n in range(1, 101):
        graph = _graph(f"cyclic:{n}")
        for m in range(n):
            assert degree_in_cyclic(n, m) == graph.degree(m), (n, m)


def test_equal_orders_equal_degrees():
    for n in (12, 24, 30, 45, 60):
        g = build(parse_group_spec(f"cyclic:{n}"))
        graph = power_graph(g)
        by_order = {}
        for v in range(n):
            by_order.setdefault(g.element_order[v], set()).add(graph.degree(v))
        assert all(len(degs) == 1 for degs in by_order.values())


def test_complete_iff_prime_power():
    for n in range(1, 201):
        prime_power = n == 1 or len(factorize(n)) == 1
        assert is_complete(_graph(f"cyclic:{n}")) == prime_power, n


def test_complete_counterexamples_noncyclic():
    assert not is_complete(_graph("sym:3"))
    assert not is_complete(_graph("cyclic:6"))


def test_power_graph_connected_on_catalog():
    specs = [
        "cyclic:15", "dihedral:6", "quaternion:3", "elemabelian:2^3",
        "sym:4", "alt:5", "semidirect:7:3",
        "product:(cyclic:4)x(cyclic:2)",
    ]
    for text in specs:
        assert len(_components(_graph(text))) == 1, text


def test_epo_reduced_graph_is_clique_union():
    # prime-order groups split into c_p cliques on p-1 vertices each
    for text in ["sym:3", "alt:4", "semidirect:7:3", "alt:5",
                 "elemabelian:3^2", "elemabelian:2^3"]:
        g = build(parse_group_spec(text))
        reduced = reduced_power_graph(g)
        comps = _components(reduced)
        expected = Counter()
        for p in sorted({o for o in g.element_order if o != 1}):
            expected[p - 1] += count_cyclic_subgroups(g, p)
        assert Counter(len(c) for c in comps) == expected
        for comp in comps:
            for i, u in enumerate(comp):
                for v in comp[i + 1 :]:
                    assert reduced.is_adjacent(u, v)


def _brute_force_clique(graph):
    """Independent oracle: test every vertex subset."""
    from itertools import combinations

    n = graph.vertex_count
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(
                graph.is_adjacent(u, v)
                for i, u in enumerate(subset)
                for v in subset[i + 1 :]
            ):
                return size
    return 0


def test_clique_number():
    for n in (8, 9, 16, 25):
        assert clique_number(_graph(f"cyclic:{n}")) == n
    assert clique_number(_graph("alt:5")) == 5
    # {1, x, x^2, x^4, x^5} is a 5-clique whenever x has order 6
    assert clique_number(_graph("cyclic:6")) == _brute_force_clique(_graph("cyclic:6")) == 5
    assert clique_number(_graph("cyclic:1")) == 1


def test_clique_number_matches_brute_force():
    for text in ["cyclic:6", "cyclic:10", "cyclic:12", "sym:3", "alt:4",
                 "dihedral:5", "quaternion:2", "elemabelian:2^3"]:
        graph = _graph(text)
        assert clique_number(graph) == _brute_force_clique(graph), text


def test_clique_number_cap():
    with pytest.raises(TooLarge):
        clique_number(_graph("cyclic:513"))


def test_json_emitter_schema():
    import json

    payload = json.loads(to_json(_graph("cyclic:4")))
    assert payload["vertices"] == 4
    assert sorted(payload["edges"]) == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert payload["labels"]["0"] == "1"
    assert set(payload["labels"]) == {"0", "1", "2", "3"}


def test_dot_emitter():
    dot = to_dot(_graph("cyclic:3"))
    assert dot.startswith('graph "P(Z_3)"')
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert dot.rstrip().endswith("}")
