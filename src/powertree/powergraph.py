"""Power graphs of finite groups and their identity-deleted reductions.

Vertices x, y are adjacent exactly when one of the cyclic subgroups <x>, <y>
contains the other, so the graph is the poset of cyclic subgroups with each
subgroup blown up into a clique of its generators (closed twins). A graph
holds only its group, and every query reads that poset: adjacency looks
up two classes in it, the vertex and edge counts and completeness come from
the classes, connectivity is treecount.connected on the graph of class
inclusions, and the clique number is the most vertices on a chain of cyclic
subgroups. Edge walks and degrees read one sorted closed neighbourhood per
cyclic subgroup, shared by its generators and built on first use. A vertex's
later neighbours are the slice of its class's neighbourhood after itself, so
a walk costs time in proportion to the edges it lists. The edge list takes
those slices; one walker hands the emitters each class's neighbour names,
listed once. The emitters ask the group for each vertex's label and write to
a stream in batches of about 64 KB.
"""

from __future__ import annotations

import json
from bisect import bisect_right

from .errors import InvalidSpec, TooLarge
from .groups import FiniteGroup
from .treecount import connected

# cyclic:2000 (1 777 660 edges) is written as JSON to a file in about 0.30 s at 17 MB peak RSS
RENDER_EDGE_LIMIT = 2_000_000
WRITE_BATCH = 1 << 16  # characters an emitter gathers before one write


class PowerGraph:
    """Simple undirected graph on the elements of `group`.

    Vertex v is element v + first of `group`, first = 1 when the identity is
    deleted; its label is the element's text, made only when the graph is
    rendered.
    """

    __slots__ = ("vertex_count", "group", "first", "name", "_closed")

    def __init__(self, group, first=0):
        self.group, self.first, self._closed = group, first, None
        self.name = f"P({group.name}{'#' * first})"
        self.vertex_count = group.order - first

    def is_adjacent(self, u: int, v: int) -> bool:
        c, d = self.group.cyclic_class[u + self.first], self.group.cyclic_class[v + self.first]
        below = self.group.poset.below
        return u != v and (c == d or c in below[d] or d in below[c])

    def degree(self, v: int) -> int:
        return len(self._neighbourhoods()[self.group.cyclic_class[v + self.first]]) - 1

    def edges(self):
        """(u, v) for each edge, u < v: the slice of u's closed neighbourhood after u."""
        closed = self._neighbourhoods()
        return ((u, v) for u, c in enumerate(self.group.cyclic_class[self.first:])
                for v in closed[c][bisect_right(closed[c], u):])

    def edge_count(self) -> int:
        """From the subgroup poset. The k generators of a cyclic subgroup D that
        are vertices form a clique, and each is joined to D's |D| - first - k
        other vertices, the generators of the subgroups inside D; so an edge
        between comparable classes is counted once, at the larger."""
        orders, sizes, _ = self.group.poset
        return sum(k * (k - 1) // 2 + k * (orders[d] - self.first - k)
                   for d, k in enumerate(sizes) if d >= self.first)

    def is_connected(self) -> bool:
        """The full graph is, through the identity. A class's generators are a
        clique, so the reduced graph is connected when its classes are, joined
        by inclusion; class c is vertex c - 1, the identity's class 0 left out."""
        if not self.first:
            return True
        below = self.group.poset.below
        return connected(len(below) - 1, [(c - 1, d - 1) for d, inside in enumerate(below)
                                          for c in inside[1:]])  # class 0 first

    def _neighbourhoods(self) -> list[tuple[int, ...]]:
        if self._closed is None:
            self._closed = _closed_neighbourhoods(self.group, self.first)
        return self._closed

    def __repr__(self):
        return f"PowerGraph({self.name}, n={self.vertex_count}, m={self.edge_count()})"


def _closed_neighbourhoods(g: FiniteGroup, first: int) -> list[tuple[int, ...]]:
    """Per cyclic class of g, the sorted vertices of its own and every comparable
    class, vertex v being element v + first."""
    below = g.poset.below
    generators = [[] for _ in below]
    for v, c in enumerate(g.cyclic_class[first:]):
        generators[c].append(v)
    closed = [list(gens) for gens in generators]
    for d, inside in enumerate(below):
        for c in inside:
            closed[c] += generators[d]
            closed[d] += generators[c]
    return [tuple(sorted(nb)) for nb in closed]


def power_graph(g: FiniteGroup) -> PowerGraph:
    """Power graph on all of g, one vertex per element, identity at vertex 0."""
    return PowerGraph(g)


def reduced_power_graph(g: FiniteGroup) -> PowerGraph:
    """power_graph(g) with the identity vertex deleted; may be disconnected."""
    if g.order < 2:
        raise InvalidSpec("reduced power graph needs |G| >= 2")
    return PowerGraph(g, 1)


def is_complete(graph: PowerGraph) -> bool:
    n = graph.vertex_count
    return 2 * graph.edge_count() == n * (n - 1)


def clique_number(graph: PowerGraph) -> int:
    """Exact maximum clique size. A vertex set is a clique exactly when its
    cyclic subgroups form a chain, so this is the most vertices on a chain.
    The classes come in order of |C|, so every chain below C is final before
    it is extended by C."""
    orders, sizes, below = graph.group.poset
    best = [0] * len(sizes)  # most vertices on a chain ending at the class
    for d in sorted(range(graph.first, len(sizes)), key=orders.__getitem__):
        best[d] = sizes[d] + max(map(best.__getitem__, below[d]), default=0)
    return max(best)


def _emit(graph: PowerGraph, chunks, out):
    """The text of chunks(graph): returned, or written to `out` in batches of
    at least WRITE_BATCH characters but the last. The edge cap is checked
    first, so a refused graph writes nothing."""
    if (m := graph.edge_count()) > RENDER_EDGE_LIMIT:
        raise TooLarge(f"rendering capped at {RENDER_EDGE_LIMIT} edges; {graph.name} has {m}")
    if out is None:
        return "".join(chunks(graph))
    batch, size = [], 0
    for chunk in chunks(graph):
        batch.append(chunk)
        size += len(chunk)
        if size >= WRITE_BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))


def to_json(graph: PowerGraph, out=None) -> str | None:
    """Canonical JSON adjacency: {"vertices": N, "edges": [...], "labels": {...}}."""
    return _emit(graph, _json_chunks, out)


def to_dot(graph: PowerGraph, out=None) -> str | None:
    return _emit(graph, _dot_chunks, out)


def _later_names(graph: PowerGraph, names):
    """Yield (names[u], the sorted names of u's neighbours v > u) for each
    vertex u that has any: each class's neighbour names are listed once, and
    a vertex gets the slice after itself. `names` holds each vertex's
    decimal text, made once by the emitter."""
    closed = graph._neighbourhoods()
    listed = [list(map(names.__getitem__, nb)) for nb in closed]
    for u, c in enumerate(graph.group.cyclic_class[graph.first:]):
        nb = closed[c]
        start = bisect_right(nb, u)
        if start < len(nb):
            yield names[u], listed[c][start:]


def _labels(graph: PowerGraph):
    """Each vertex's label, in vertex order, made by the group."""
    return map(graph.group.element_repr, range(graph.first, graph.group.order))


def _json_chunks(graph: PowerGraph):
    n = graph.vertex_count
    names = list(map(str, range(n)))  # each vertex's decimal text, once
    yield f'{{"vertices": {n}, "edges": ['
    sep = ""
    for name, later in _later_names(graph, names):
        yield sep + f"[{name}, " + f"], [{name}, ".join(later) + "]"
        sep = ", "
    labels = json.dumps(dict(zip(names, _labels(graph))), ensure_ascii=False, separators=(", ", ": "))
    yield f'], "labels": {labels}}}'


def _dot_chunks(graph: PowerGraph):
    names = list(map(str, range(graph.vertex_count)))
    yield f'graph "{graph.name}" {{\n'
    yield "".join(f'  {v} [label="{label}"];\n' for v, label in zip(names, _labels(graph)))
    for name, later in _later_names(graph, names):
        yield f"  {name} -- " + f";\n  {name} -- ".join(later) + ";\n"
    yield "}\n"
