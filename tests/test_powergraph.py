import hashlib
import io
import json
from collections import Counter
from math import gcd

import pytest

from powertree import powergraph
from powertree.cli import main
from powertree.closedform import divisor_profile
from powertree.errors import TooLarge, TrivialGroup
from powertree.groups import FiniteGroup, build, count_cyclic_subgroups
from powertree.numutil import factorize
from powertree.powergraph import (
    clique_number,
    is_complete,
    power_graph,
    reduced_power_graph,
    to_dot,
    to_json,
)
from powertree.specparse import parse_group_spec
from powertree.treecount import MultiGraph, closed_degrees, quotient_kappa, temperley_kappa


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
    """Reference edge list: every pair u < v whose bit is set in the pairwise rows, in order."""
    rows = _pairwise_rows(graph.group, reduced=graph.first == 1)
    n = graph.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


def _check_matches_pairwise_rule(graph, rows):
    """is_adjacent on every pair, degree, connectivity and completeness of
    `graph` against its reference rows."""
    n = graph.vertex_count
    assert [[graph.is_adjacent(u, v) for v in range(n)] for u in range(n)] == [
        [bool(row >> v & 1) for v in range(n)] for row in rows
    ]
    assert [graph.degree(v) for v in range(n)] == [row.bit_count() for row in rows]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]
    assert graph.is_connected() == MultiGraph(n, edges).is_connected()
    assert is_complete(graph) == (2 * len(edges) == n * (n - 1))


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
    _check_matches_pairwise_rule(power_graph(g), _pairwise_rows(g))
    if g.order >= 2:
        _check_matches_pairwise_rule(reduced_power_graph(g), _pairwise_rows(g, reduced=True))


@pytest.mark.parametrize("text", list(dict.fromkeys(
    ["cyclic:12", "cyclic:60", "dihedral:30", "quaternion:15", "sym:5", "elemabelian:2^3"]
    + [text for text in ORACLE_SPECS if text != "cyclic:1"]  # Z_1 has no reduced graph
)))
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
    assert repr(graph) == "PowerGraph(P(Z_4), n=4, m=6)"
    assert repr(_graph("cyclic:4", reduced=True)) == "PowerGraph(P(Z_4#), n=3, m=3)"


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


def test_degree_formula_matches_graph_up_to_100():
    for n in range(1, 101):
        poset = divisor_profile(n)
        degree_of_order = {m: d - 1 for m, d in zip(poset.orders, closed_degrees(poset))}
        graph = _graph(f"cyclic:{n}")
        for m in range(n):
            assert degree_of_order[n // gcd(m, n)] == graph.degree(m), (n, m)


def test_equal_orders_equal_degrees():
    for n in (12, 24, 30, 45, 60):
        g = build(parse_group_spec(f"cyclic:{n}"))
        graph = power_graph(g)
        by_order = {}
        for v in range(n):
            by_order.setdefault(g.poset.orders[g.cyclic_class[v]], set()).add(graph.degree(v))
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
        for p in sorted(set(g.poset.orders[1:])):
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
        for graph in (_graph(text), _graph(text, reduced=True)):
            assert clique_number(graph) == _brute_force_clique(graph), graph.name


def _divisor_chain_clique(n):
    """ω(P(Z_n)): the generators of the subgroups on the best chain of divisors,
    best(d) = phi(d) + max best(e) over the divisors e < d of d."""
    best = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        totient = sum(1 for k in range(d) if gcd(k, d) == 1)
        best[d] = totient + max((best[e] for e in best if d % e == 0), default=0)
    return best[n]


@pytest.mark.parametrize("n, omega", [(1024, 1024), (2000, 1625), (9240, 4151)])
def test_clique_number_above_512_vertices(n, omega):
    # exact on every graph: these are above the 512 vertices the old search took
    assert _divisor_chain_clique(n) == omega
    assert clique_number(_graph(f"cyclic:{n}")) == omega
    # every largest chain holds the identity
    assert clique_number(_graph(f"cyclic:{n}", reduced=True)) == omega - 1


def test_json_emitter_schema():
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


def _per_edge_json(graph):
    """Reference JSON emitter: one [u, v] list per edge, encoded by json.dumps."""
    payload = {
        "vertices": graph.vertex_count,
        "edges": [[u, v] for u, v in _bitwise_edges(graph)],
        "labels": {str(v): graph.group.element_repr(v + graph.first) for v in range(graph.vertex_count)},
    }
    return json.dumps(payload, ensure_ascii=False, separators=(", ", ": "))


def _per_edge_dot(graph):
    """Reference DOT emitter: one line per vertex, then one line per edge."""
    lines = [f'graph "{graph.name}" {{']
    for v in range(graph.vertex_count):
        lines.append(f'  {v} [label="{graph.group.element_repr(v + graph.first)}"];')
    for u, v in _bitwise_edges(graph):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_renders_like_per_edge(graph):
    assert to_json(graph) == _per_edge_json(graph)
    assert to_dot(graph) == _per_edge_dot(graph)


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_emitters_match_per_edge_reference(text):
    g = build(parse_group_spec(text))
    _check_renders_like_per_edge(power_graph(g))
    if g.order >= 2:
        _check_renders_like_per_edge(reduced_power_graph(g))


def test_emitters_on_edgeless_graphs():
    one = _graph("cyclic:1")
    assert to_json(one) == '{"vertices": 1, "edges": [], "labels": {"0": "1"}}'
    assert to_dot(one) == 'graph "P(Z_1)" {\n  0 [label="1"];\n}\n'
    isolated = _graph("elemabelian:2^3", reduced=True)
    assert isolated.edge_count() == 0
    assert json.loads(to_json(isolated))["edges"] == []
    _check_renders_like_per_edge(isolated)


# SHA-1 of `graph SPEC --format FMT [--reduced]` stdout, recorded before the
# emitters walked one neighbourhood per cyclic subgroup
GOLDEN_GRAPH_SHA1 = [
    (("sym:5", "json", False), "d2c4808689293fadf0ee8930e6082121f6b19e02"),
    (("sym:5", "json", True), "8b0cd2a0bd7e3009aad7ea2900d407b81e3f988b"),
    (("sym:5", "dot", False), "a788de7f856155ab725d38444f28bc8c4b399237"),
    (("sym:5", "dot", True), "f873275287509ffaeeec619eb37051ea220ad830"),
    (("dihedral:30", "json", False), "c7399319ec294c2faa17e9d515c6ec38a91f8cbb"),
    (("dihedral:30", "json", True), "71e8acb3a52a653cf1fa6a89d99480ffacfd0b67"),
    (("dihedral:30", "dot", False), "06b35235839c3df47cde650bbd6130a46f3d85a4"),
    (("dihedral:30", "dot", True), "1c0ea7e2d20d16ce2cdb9d8110d03a39e6004c06"),
    (("quaternion:6", "json", False), "66906e1b23f6672e3df1463c55c6ea907d1dba82"),
    (("quaternion:6", "json", True), "c18aa45c6c413e05ada2a6d4bb4d1b63dbaad2f0"),
    (("quaternion:6", "dot", False), "5e6129e432e0ddf7e4afef7ab8243cc967dfa7f3"),
    (("quaternion:6", "dot", True), "475cc8f5c8a0aee810bbd608f8faabb5a224a959"),
    (("cyclic:60", "json", False), "40f0a810e43f12282895dee2e045b2b0cc28163a"),
    (("cyclic:60", "json", True), "4c306819e81aea478081750d43dc6463c2b04423"),
    (("cyclic:60", "dot", False), "d9b922b07dfaf1b8994909e2cd49932340eedf4b"),
    (("cyclic:60", "dot", True), "d6f495972ea3e7469015ff881b49353fcf79e440"),
    # the other kinds' labels, recorded before labels were made at print time
    (("elemabelian:2^3", "json", False), "03b083c28d8cd011451c1734e151c55235c09a68"),
    (("elemabelian:2^3", "json", True), "34cf626c6c09a8a0b1e02ee391a920fa0d45783a"),
    (("elemabelian:2^3", "dot", False), "a0dc68dace8c11448f3f1c1f1209fb92905b540e"),
    (("elemabelian:2^3", "dot", True), "407e6c0a93336b13aed9ed218bf48bc8f8b39200"),
    (("alt:5", "json", False), "8a6aa69cfbd8cde255044d1f8a6003926ce63bcd"),
    (("alt:5", "json", True), "18ed6904e26ad20e8e920e93e09f50e62ba2ac62"),
    (("alt:5", "dot", False), "ff599c4f4c39f2e038a7c741cd0525e58ea8caa5"),
    (("alt:5", "dot", True), "4a365dc133bb2a2046c0bcdd0413f0068e831f87"),
    (("semidirect:7:3", "json", False), "d46fce8ca0d4a9e4c0775faaf970d6005e06d2a1"),
    (("semidirect:7:3", "json", True), "4a6bb0692482dc1ce824651fe4ffcfabf41e3028"),
    (("semidirect:7:3", "dot", False), "121f0143e56c0d49fdfa5543cfd05e5d6446bd31"),
    (("semidirect:7:3", "dot", True), "94a748eed04cc6ec1045c0b7894d23c9ef39f822"),
    (("product:(cyclic:3)x(cyclic:2)", "json", False), "dae68c37b0c5ba6e747cbfeef3a910e7c542a225"),
    (("product:(cyclic:3)x(cyclic:2)", "json", True), "b6b4af5af79335e3264607c08509c76a796b67d5"),
    (("product:(cyclic:3)x(cyclic:2)", "dot", False), "34d6adad4c125d03957415153eb96c0186df30e9"),
    (("product:(cyclic:3)x(cyclic:2)", "dot", True), "352b9cb7398799ab46e51dd8a833ea6bdd089e0b"),
    (("product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))", "json", False),
     "40e3948b0ae2355eaf4a592a6f66f674e024cdde"),
    (("product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))", "json", True),
     "3fa2aec9439bf10f9d2e159d7a8009110233fac6"),
    (("product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))", "dot", False),
     "51fcdf9d605ebd60d027f0989188b4768ec08bda"),
    (("product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))", "dot", True),
     "bba9c2dcfb9b7dfdbdcc5d67de0a468f82a6e897"),
    (("product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)", "json", False),
     "f80061dedd5aad0504dd4f12720f5f5ebfd997c8"),
    (("product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)", "json", True),
     "d43bffb0c59f1fb51aef891ecdac76383749d5ee"),
    (("product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)", "dot", False),
     "3e154341df8d33a352c327b5be1405a44b9e33ba"),
    (("product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)", "dot", True),
     "3f1d6b857f849771bc3bac6e2956cd1e177503ea"),
    (("perm:5:(1 2 3 4 5);(1 2 3)", "json", False), "bcb2bcfea9c5642de6159a55aaa0e4e21daf50bb"),
    (("perm:5:(1 2 3 4 5);(1 2 3)", "json", True), "d817f690c21318747efed132f7ea3a05af1c1487"),
    (("perm:5:(1 2 3 4 5);(1 2 3)", "dot", False), "6ad28dffae139ccc918698aac0d89b3a985c6929"),
    (("perm:5:(1 2 3 4 5);(1 2 3)", "dot", True), "b183bf493e7891daa13f4b21e031efa77d39353c"),
    (("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)", "json", False), "44aa50ec2cc17b0242ac7b96c8fe8a636e99a6fc"),
    (("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)", "json", True), "7b9407b47237e6fce014246b70f2eecabc9da7e8"),
    (("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)", "dot", False), "603d7af65b854d4d401a18253b3e24626b4ae3f5"),
    (("perm:6:(1 2 3);(4 5 6);(2 3)(5 6)", "dot", True), "885b746b5581f9ea3acc2dd06062642573542a17"),
    (("perm:4:(1 2)(3 4)", "json", False), "f2477a33f36ab961393346cfcac0758a31393817"),
    (("perm:4:(1 2)(3 4)", "json", True), "2eeb56af69832a7f49a079302961d54f551a1088"),
    (("perm:4:(1 2)(3 4)", "dot", False), "58b124656fa838fdb25c40af5c7f205b987ebf73"),
    (("perm:4:(1 2)(3 4)", "dot", True), "2f8b0ad5ea492db2ff4778539a02e85973bb357d"),
    # the graph-export benchmark's outputs, recorded at commit 61b9eb0, before
    # the edge walk read the cyclic-subgroup poset
    (("sym:6", "json", False), "e4bc826167c6e77c0142298724e09e75c5d15569"),
    (("dihedral:500", "json", False), "e8b81dc45f6d2ade5ae4b55bb17169f4766d5c31"),
    (("quaternion:250", "json", False), "8323a972b8f0dd7148f990c8c71461a4201ee07c"),
    (("product:(sym:5)x(cyclic:12)", "json", False), "4478da43f5bd47a22c0e0fd726f8028aaca599d0"),
    (("alt:7", "json", False), "a966279aebeeb7324782e0d6b32a7ddf3d113b8c"),
    (("elemabelian:3^7", "json", False), "c1a7bf09a1b4e2d8b7f9d1fe6dc0fa9f0b9a762d"),
    (("sym:7", "json", False), "6bbd42f9979442e7d2feb2873d03631cbd0af4e6"),
    (("sym:6", "dot", False), "879fa66c600d08c55b419d824b332df0ee9471c8"),
    (("dihedral:500", "dot", False), "8204bef78e2cb66006ceba4b573055bcd1b25ffd"),
    (("sym:7", "json", True), "9cb2232b79928ebd6772f6b2ad66c9eeaf374726"),
    # the rest of the graph-export specs' outputs in both formats, full and
    # reduced, recorded before each group kind listed its own powers
    (("sym:6", "json", True), "5c0f721af2c525ed2c7e55a477c77c74815434b4"),
    (("sym:6", "dot", True), "c472e946619c8dae7f1b5060f14f776f8d66a560"),
    (("dihedral:500", "json", True), "f5decc28ec71216f4375862f19cf3820e5b01951"),
    (("dihedral:500", "dot", True), "80ca1f0c5c55e46d5a1012bff774ec6ba2a6a0e2"),
    (("quaternion:250", "json", True), "bce6e8137632009aabc72151693e682b488e9dae"),
    (("quaternion:250", "dot", False), "e8761fd6ff9131434041c1aa307f9951e4a6bc0e"),
    (("quaternion:250", "dot", True), "e078d4693c390e4c1fe1b5db93a58ff0c04937ba"),
    (("product:(sym:5)x(cyclic:12)", "json", True), "94d8cc892e5d67fbe417cbb1316679ffb2362048"),
    (("product:(sym:5)x(cyclic:12)", "dot", False), "4cc94dae5af4a17be1c43511e0b0f79d48730f4d"),
    (("product:(sym:5)x(cyclic:12)", "dot", True), "bc4d10dc7da52b55a8ad5036e100a88d3bc6ea69"),
    (("alt:7", "json", True), "574f7f9622b88ea12c6e2e3b05f5aa43af0d4c67"),
    (("alt:7", "dot", False), "4893fdcd710bf1b9506acebc8952e735902e64c3"),
    (("alt:7", "dot", True), "2353ebac7a40c24ba25f11754eae53f3fc2f8913"),
    (("elemabelian:3^7", "json", True), "4de440e7d1bc856cd8ed87e8cc6ecdfc88401bd0"),
    (("elemabelian:3^7", "dot", False), "5db5326174955578e6b6c53d5408eec74b25a294"),
    (("elemabelian:3^7", "dot", True), "8b4af48e051b1b32ffa65e6519ab4e68163399d9"),
    (("sym:7", "dot", False), "f044e3b6d28e577daadbb212b184bf43e2f3ea79"),
    (("sym:7", "dot", True), "5ebbb1b14f1832d63ce314715a7cd802820716dd"),
]


@pytest.mark.parametrize("case, sha1", GOLDEN_GRAPH_SHA1)
def test_graph_output_matches_golden_hash(case, sha1, capsys):
    spec, fmt, reduced = case
    assert main(["graph", spec, "--format", fmt] + (["--reduced"] if reduced else [])) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1


# SHA-1 of the concatenated `divisor-graph N [--complement] --format FMT`
# stdout over DIVISOR_GRAPH_NS, recorded before the command read the
# divisor profile
DIVISOR_GRAPH_NS = [*range(1, 401), 720, 840, 5040, 9240, 10000]
GOLDEN_DIVISOR_GRAPH_SHA1 = [
    ((False, "dot"), "dab4eff5ae46943a754f613c9c279f71c9304d7b"),
    ((False, "json"), "6a4cc84be4c62938c51b462bf2c427ff73af0fa8"),
    ((True, "dot"), "ed95c641bcb8c91a826c7cdd3cb1dfdfb8c039e9"),
    ((True, "json"), "04fdff0c6ca98ec4125ef9bfd57c26d94ac199b1"),
]


@pytest.mark.parametrize("case, sha1", GOLDEN_DIVISOR_GRAPH_SHA1)
def test_divisor_graph_output_matches_golden_hash(case, sha1, capsys):
    complement, fmt = case
    digest = hashlib.sha1()
    for n in DIVISOR_GRAPH_NS:
        argv = ["divisor-graph", str(n), "--format", fmt] + (["--complement"] if complement else [])
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == sha1


# SHA-1 of the concatenated `divisor-graph N` and
# `divisor-graph N --complement --format json` stdout over
# DIVISOR_GRAPH_RECORD_NS, recorded before the command read Z_n's record
DIVISOR_GRAPH_RECORD_NS = [*range(1, 421), 720, 840, 2520, 5040, 9240, 10000]
GOLDEN_DIVISOR_GRAPH_RECORD_SHA1 = [
    (("--format", "dot"), "9003533da2c4f0d06fd028609b9b5a09f8b94383"),
    (("--complement", "--format", "json"), "e95dbc1773fa73eecce20f97b01972f58ca6d818"),
]


@pytest.mark.parametrize("flags, sha1", GOLDEN_DIVISOR_GRAPH_RECORD_SHA1)
def test_divisor_graph_from_the_record_matches_golden_hash(flags, sha1, capsys):
    digest = hashlib.sha1()
    for n in DIVISOR_GRAPH_RECORD_NS:
        assert main(["divisor-graph", str(n), *flags]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == sha1


def test_emitters_check_the_edge_cap(monkeypatch):
    graph = _graph("cyclic:4")  # 6 edges
    monkeypatch.setattr(powergraph, "RENDER_EDGE_LIMIT", 6)
    _check_renders_like_per_edge(graph)
    monkeypatch.setattr(powergraph, "RENDER_EDGE_LIMIT", 5)
    for emit in (to_json, to_dot):
        with pytest.raises(TooLarge, match="capped at 5 edges"):
            emit(graph)


# one spec per kind, products nested both ways, perm groups by generators
LABEL_SPECS = [
    "cyclic:12", "dihedral:3", "quaternion:2", "elemabelian:2^3", "sym:4", "alt:5",
    "semidirect:7:3", "product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))",
    "product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)", "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
]


@pytest.mark.parametrize("text", LABEL_SPECS)
def test_labels_are_made_only_when_printed(text, monkeypatch):
    made = Counter()  # label calls per group name
    init = FiniteGroup.__init__

    def counting_init(self, name, order, mul, label):
        def counted(i):
            made[name] += 1
            return label(i)

        init(self, name, order, mul, counted)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    g = build(parse_group_spec(text))
    graph = power_graph(g)
    temperley_kappa(graph)
    quotient_kappa(g.poset)
    reduced = reduced_power_graph(g)
    assert not made
    to_json(graph)
    assert made[g.name] == g.order
    to_dot(reduced)
    assert made[g.name] == 2 * g.order - 1


def _refuse(*args):
    raise AssertionError("this route should not build it")


@pytest.mark.parametrize("text", LABEL_SPECS)
def test_edge_count_from_the_poset_matches_the_rows(text, monkeypatch):
    graphs = [_graph(text), _graph(text, reduced=True)]
    with monkeypatch.context() as patched:
        patched.setattr(powergraph, "_closed_neighbourhoods", _refuse)
        counts = [graph.edge_count() for graph in graphs]
    assert counts == [sum(map(int.bit_count, _pairwise_rows(graph.group, graph.first == 1))) // 2
                      for graph in graphs]


@pytest.mark.parametrize("text", LABEL_SPECS)
def test_emitters_write_to_a_stream_what_they_return(text):
    for graph in (_graph(text), _graph(text, reduced=True)):
        for emit in (to_json, to_dot):
            out = io.StringIO()
            assert emit(graph, out) is None
            assert out.getvalue() == emit(graph)


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_emitters_write_in_batches():
    graph = _graph("dihedral:500")  # 112 230 edges
    for emit in (to_json, to_dot):
        out = _CountingWriter()
        assert emit(graph, out) is None
        text = emit(graph)
        assert out.getvalue() == text
        assert out.writes <= -(-len(text) // 65_536) + 1, (emit, out.writes, len(text))


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_cmd_graph_prints_the_emitted_text_or_refuses(fmt, capsys):
    assert main(["graph", "sym:4", "--format", fmt]) == 0
    text = capsys.readouterr().out
    graph = _graph("sym:4")
    assert text == (to_dot(graph) if fmt == "dot" else to_json(graph) + "\n")
    assert main(["graph", "dihedral:5000", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "P(D_10000) has 11135316" in captured.err
