"""Power graphs of finite groups and their identity-deleted reductions.

Vertices x, y are adjacent exactly when one of the cyclic subgroups <x>, <y>
contains the other. Adjacency is kept as packed bit rows, one integer per
vertex, which keeps the later determinant assembly cheap. Edge walks bisect
one sorted closed neighbourhood per cyclic subgroup, shared by its generators
(closed twins), so a walk costs time in proportion to the edges it lists.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from math import gcd

from .errors import OutOfRange, TooLarge, TrivialGroup
from .groups import FiniteGroup
from .numutil import divisors, phi

CLIQUE_SEARCH_LIMIT = 512
# cyclic:2000 (1 777 660 edges) renders as JSON in about 0.28 s at 83 MB peak RSS
RENDER_EDGE_LIMIT = 2_000_000


class PowerGraph:
    """Simple undirected graph on group elements with bitmask adjacency rows.

    Vertex v is element v + first of `group`, first = 1 when the identity is
    deleted. label(v) is vertex v's text, made only when the graph is rendered.
    """

    __slots__ = ("vertex_count", "rows", "group", "first", "name", "label", "_closed")

    def __init__(self, group, rows, first=0):
        self.group, self.rows, self.first, self._closed = group, rows, first, None
        self.name = f"P({group.name}{'#' * first})"
        self.vertex_count = len(rows)
        self.label = lambda v: group.element_repr(v + first)

    def is_adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        return ((u, v) for u, later in self._later_neighbours() for v in later)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.vertex_count)) // 2

    def _later_neighbours(self):
        """Yield (u, sorted neighbours v > u) per vertex u, sliced from its class's
        closed neighbourhood; routes that read only rows never build those."""
        if self._closed is None:
            self._closed = _closed_neighbourhoods(self.group, self.first)
        for u, c in enumerate(self.group.cyclic_class[self.first:]):
            nb = self._closed[c]
            yield u, nb[bisect_right(nb, u):]

    def __repr__(self):
        return f"PowerGraph({self.name}, n={self.vertex_count}, m={self.edge_count()})"


def _closed_neighbourhoods(g: FiniteGroup, first: int) -> list[tuple[int, ...]]:
    """Per cyclic class of g, the sorted vertices of its own and every comparable
    class, vertex v being element v + first: power_graph's rows as vertex lists."""
    cls = g.cyclic_class
    generators = [[] for _ in g.cyclic_subgroups]
    for v, c in enumerate(cls[first:]):
        generators[c].append(v)
    closed = [list(gens) for gens in generators]
    for d, members in enumerate(g.cyclic_subgroups):
        for c in {cls[x] for x in members} - {d}:
            closed[c] += generators[d]
            closed[d] += generators[c]
    return [tuple(sorted(nb)) for nb in closed]


def power_graph(g: FiniteGroup) -> PowerGraph:
    """Power graph on all of g, one vertex per element, identity at vertex 0.

    Elements generating the same cyclic subgroup D are closed twins, so the
    graph is the poset of cyclic subgroups with each D blown up into a clique
    of its generators. A class reaches its own generators and those of every
    class comparable with it; every C contained in D is <x> for some x in D.
    """
    cls = g.cyclic_class
    generators = [0] * len(g.cyclic_subgroups)
    for i, c in enumerate(cls):
        generators[c] |= 1 << i
    reach = list(generators)
    for d, members in enumerate(g.cyclic_subgroups):
        for c in {cls[x] for x in members} - {d}:
            reach[c] |= generators[d]
            reach[d] |= generators[c]
    return PowerGraph(g, [reach[c] ^ 1 << i for i, c in enumerate(cls)])


def reduced_power_graph(g: FiniteGroup) -> PowerGraph:
    """power_graph(g) with the identity vertex deleted; may be disconnected."""
    if g.order < 2:
        raise TrivialGroup("reduced power graph needs |G| >= 2")
    return PowerGraph(g, [row >> 1 for row in power_graph(g).rows[1:]], 1)


def degree_in_cyclic(n: int, m: int) -> int:
    """Degree of the m-th power of a generator in the power graph of Z_n.

    Counts the n/gcd(m,n) - 1 other members of the generated subgroup plus,
    for each proper divisor d of gcd(m,n), the phi(n/d) elements whose
    subgroup strictly contains it.
    """
    if n < 1 or not 0 <= m < n:
        raise OutOfRange(f"need n >= 1 and 0 <= m < n, got n={n}, m={m}")
    g = gcd(m, n)
    deg = n // g - 1
    for d in divisors(g):
        if d != g:
            deg += phi(n // d)
    return deg


def is_complete(graph: PowerGraph) -> bool:
    n = graph.vertex_count
    full = (1 << n) - 1
    return all(graph.rows[v] | (1 << v) == full for v in range(n))


def clique_number(graph: PowerGraph) -> int:
    """Exact maximum clique size by coloring-bounded branch and bound."""
    n = graph.vertex_count
    if n > CLIQUE_SEARCH_LIMIT:
        raise TooLarge(f"clique search capped at {CLIQUE_SEARCH_LIMIT} vertices")
    if n == 0:
        raise OutOfRange("clique number needs at least one vertex")
    rows = graph.rows
    best = 1

    def expand(size: int, cand: int) -> None:
        nonlocal best
        # Greedy coloring of the candidate set; color index bounds any
        # clique inside it, so candidates are tried in reverse color order.
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                uncolored &= ~bit
                avail &= ~bit & ~rows[v]
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            cand &= ~(1 << v)
            sub = cand & rows[v]
            if size + 1 > best:
                best = size + 1
            if sub:
                expand(size + 1, sub)

    expand(0, (1 << n) - 1)
    return best


def _check_render_cap(graph: PowerGraph) -> None:
    if (m := graph.edge_count()) > RENDER_EDGE_LIMIT:
        raise TooLarge(f"rendering capped at {RENDER_EDGE_LIMIT} edges; {graph.name} has {m}")


def to_json(graph: PowerGraph) -> str:
    """Canonical JSON adjacency: {"vertices": N, "edges": [...], "labels": {...}}."""
    _check_render_cap(graph)
    names = list(map(str, range(graph.vertex_count)))  # each vertex's decimal text, once
    edges = ", ".join(f"[{names[u]}, " + f"], [{names[u]}, ".join(map(names.__getitem__, later)) + "]"
                      for u, later in graph._later_neighbours() if later)
    labels = json.dumps(dict(zip(names, map(graph.label, range(graph.vertex_count)))),
                        ensure_ascii=False, separators=(", ", ": "))
    return f'{{"vertices": {graph.vertex_count}, "edges": [{edges}], "labels": {labels}}}'


def to_dot(graph: PowerGraph) -> str:
    _check_render_cap(graph)
    names = list(map(str, range(graph.vertex_count)))
    nodes = "".join(f'  {v} [label="{graph.label(v)}"];\n' for v in range(graph.vertex_count))
    edges = "".join(f"  {names[u]} -- " + f";\n  {names[u]} -- ".join(map(names.__getitem__, later)) + ";\n"
                    for u, later in graph._later_neighbours() if later)
    return f'graph "{graph.name}" {{\n{nodes}{edges}}}\n'
