"""Power graphs of finite groups and their identity-deleted reductions.

Vertices x, y are adjacent exactly when one of the cyclic subgroups <x>, <y>
contains the other, so the graph is the poset of cyclic subgroups with each
subgroup blown up into a clique of its generators (closed twins). A graph
holds only its group. Its vertex and edge counts come from that poset; its
packed bit rows, one integer per vertex, are built on the first read by a
route that needs them (the clique search, the completeness test, the
decomposition pre-check). Edge walks bisect one sorted closed neighbourhood
per cyclic subgroup, shared by its generators, so a walk costs time in
proportion to the edges it lists. The emitters write to a stream piece by
piece, one vertex's edges at a time.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from math import gcd

from .errors import OutOfRange, TooLarge, TrivialGroup
from .groups import FiniteGroup
from .numutil import divisors, phi

CLIQUE_SEARCH_LIMIT = 512
# cyclic:2000 (1 777 660 edges) is written as JSON to a file in about 0.30 s at 17 MB peak RSS
RENDER_EDGE_LIMIT = 2_000_000


class PowerGraph:
    """Simple undirected graph on the elements of `group`.

    Vertex v is element v + first of `group`, first = 1 when the identity is
    deleted. label(v) is vertex v's text, made only when the graph is rendered.
    `rows` (bitmask adjacency, one int per vertex) is built on first read.
    """

    __slots__ = ("vertex_count", "group", "first", "name", "label", "_rows", "_closed")

    def __init__(self, group, first=0):
        self.group, self.first, self._rows, self._closed = group, first, None, None
        self.name = f"P({group.name}{'#' * first})"
        self.vertex_count = group.order - first
        self.label = lambda v: group.element_repr(v + first)

    @property
    def rows(self) -> list[int]:
        if self._rows is None:
            self._rows = _rows(self.group, self.first)
        return self._rows

    def is_adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        return ((u, v) for u, later in self._later_neighbours() for v in later)

    def edge_count(self) -> int:
        """From the subgroup poset, reading no rows. The k generators of a cyclic
        subgroup D that are vertices form a clique, and each is joined to D's
        |D| - first - k other vertices, the generators of the subgroups inside
        D; so an edge between comparable classes is counted once, at the larger."""
        subgroups, first = self.group.cyclic_subgroups, self.first
        return sum(k * (k - 1) // 2 + k * (len(subgroups[d]) - first - k)
                   for d, k in Counter(self.group.cyclic_class[first:]).items())

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


def _strict_inclusions(g: FiniteGroup):
    """Yield (c, d) for every pair of cyclic subgroups C < D of g, as class
    indices; every C inside D is <x> for some x in D."""
    cls = g.cyclic_class
    return ((c, d) for d, members in enumerate(g.cyclic_subgroups)
            for c in {cls[x] for x in members} - {d})


def _rows(g: FiniteGroup, first: int) -> list[int]:
    """Bit rows of the power graph on elements first.. of g: a class reaches its
    own generators and those of every class comparable with it."""
    cls = g.cyclic_class[first:]
    generators = [0] * len(g.cyclic_subgroups)
    for v, c in enumerate(cls):
        generators[c] |= 1 << v
    reach = list(generators)
    for c, d in _strict_inclusions(g):
        reach[c] |= generators[d]
        reach[d] |= generators[c]
    return [reach[c] ^ 1 << v for v, c in enumerate(cls)]


def _closed_neighbourhoods(g: FiniteGroup, first: int) -> list[tuple[int, ...]]:
    """Per cyclic class of g, the sorted vertices of its own and every comparable
    class, vertex v being element v + first: the rows as vertex lists."""
    generators = [[] for _ in g.cyclic_subgroups]
    for v, c in enumerate(g.cyclic_class[first:]):
        generators[c].append(v)
    closed = [list(gens) for gens in generators]
    for c, d in _strict_inclusions(g):
        closed[c] += generators[d]
        closed[d] += generators[c]
    return [tuple(sorted(nb)) for nb in closed]


def power_graph(g: FiniteGroup) -> PowerGraph:
    """Power graph on all of g, one vertex per element, identity at vertex 0."""
    return PowerGraph(g)


def reduced_power_graph(g: FiniteGroup) -> PowerGraph:
    """power_graph(g) with the identity vertex deleted; may be disconnected."""
    if g.order < 2:
        raise TrivialGroup("reduced power graph needs |G| >= 2")
    return PowerGraph(g, 1)


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


def _emit(graph: PowerGraph, chunks, out):
    """The text of chunks(graph): returned, or written to `out` one chunk at a
    time. The edge cap is checked first, so a refused graph writes nothing."""
    if (m := graph.edge_count()) > RENDER_EDGE_LIMIT:
        raise TooLarge(f"rendering capped at {RENDER_EDGE_LIMIT} edges; {graph.name} has {m}")
    if out is None:
        return "".join(chunks(graph))
    for chunk in chunks(graph):
        out.write(chunk)


def to_json(graph: PowerGraph, out=None) -> str | None:
    """Canonical JSON adjacency: {"vertices": N, "edges": [...], "labels": {...}}."""
    return _emit(graph, _json_chunks, out)


def to_dot(graph: PowerGraph, out=None) -> str | None:
    return _emit(graph, _dot_chunks, out)


def _json_chunks(graph: PowerGraph):
    n = graph.vertex_count
    names = list(map(str, range(n)))  # each vertex's decimal text, once
    yield f'{{"vertices": {n}, "edges": ['
    sep = ""
    for u, later in graph._later_neighbours():
        if later:
            yield sep + f"[{names[u]}, " + f"], [{names[u]}, ".join(map(names.__getitem__, later)) + "]"
            sep = ", "
    labels = json.dumps(dict(zip(names, map(graph.label, range(n)))),
                        ensure_ascii=False, separators=(", ", ": "))
    yield f'], "labels": {labels}}}'


def _dot_chunks(graph: PowerGraph):
    names = list(map(str, range(graph.vertex_count)))
    yield f'graph "{graph.name}" {{\n'
    yield "".join(f'  {v} [label="{graph.label(v)}"];\n' for v in range(graph.vertex_count))
    for u, later in graph._later_neighbours():
        if later:
            yield f"  {names[u]} -- " + f";\n  {names[u]} -- ".join(map(names.__getitem__, later)) + ";\n"
    yield "}\n"
