"""Power graphs of finite groups and their identity-deleted reductions.

Vertices x, y are adjacent exactly when one of the cyclic subgroups <x>, <y>
contains the other. Adjacency is kept as packed bit rows, one integer per
vertex, which keeps the later determinant assembly cheap. Edge walks and
rendering list one closed neighbourhood per cyclic subgroup, shared by its
generators (closed twins), and slice it for each vertex.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .errors import OutOfRange, TooLarge, TrivialGroup
from .groups import FiniteGroup
from .numutil import divisors, phi

CLIQUE_SEARCH_LIMIT = 512
# cyclic:2000 (1 777 660 edges) renders as JSON in about 0.5 s at 84 MB peak
RENDER_EDGE_LIMIT = 2_000_000


class PowerGraph:
    """Simple undirected graph on group elements with bitmask adjacency rows.

    label(v) is vertex v's text, made only when the graph is rendered.
    """

    __slots__ = ("vertex_count", "rows", "label", "name")

    def __init__(self, name, rows, label):
        self.name = name
        self.vertex_count = len(rows)
        self.rows = rows
        self.label = label

    def is_adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        return ((u, v) for u, later in _later_neighbours(self.rows) for v in later)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.vertex_count)) // 2

    def __repr__(self):
        return f"PowerGraph({self.name}, n={self.vertex_count}, m={self.edge_count()})"


def _later_neighbours(rows):
    """Yield (u, sorted neighbours v > u) per vertex u. Closed twins share the key
    row | 1 << u, whose vertex tuple is built once; u slices it after its own bit."""
    closed = {}
    for u, row in enumerate(rows):
        key = row | 1 << u
        if key not in closed:  # bin(key)[:1:-1][v] is bit v of the key
            closed[key] = tuple(m.start() for m in re.finditer("1", bin(key)[:1:-1]))
        yield u, closed[key][(key & ((2 << u) - 1)).bit_count():]


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
    rows = [reach[c] ^ 1 << i for i, c in enumerate(cls)]
    return PowerGraph(f"P({g.name})", rows, g.element_repr)


def reduced_power_graph(g: FiniteGroup) -> PowerGraph:
    """power_graph(g) with the identity vertex deleted; may be disconnected."""
    if g.order < 2:
        raise TrivialGroup("reduced power graph needs |G| >= 2")
    rows = [row >> 1 for row in power_graph(g).rows[1:]]
    return PowerGraph(f"P({g.name}#)", rows, lambda v: g.element_repr(v + 1))


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
    edges = ", ".join(f"[{u}, " + f"], [{u}, ".join(map(str, later)) + "]"
                      for u, later in _later_neighbours(graph.rows) if later)
    labels = json.dumps({str(v): graph.label(v) for v in range(graph.vertex_count)},
                        ensure_ascii=False, separators=(", ", ": "))
    return f'{{"vertices": {graph.vertex_count}, "edges": [{edges}], "labels": {labels}}}'


def to_dot(graph: PowerGraph) -> str:
    _check_render_cap(graph)
    nodes = "".join(f'  {v} [label="{graph.label(v)}"];\n' for v in range(graph.vertex_count))
    edges = "".join(f"  {u} -- " + f";\n  {u} -- ".join(map(str, later)) + ";\n"
                    for u, later in _later_neighbours(graph.rows) if later)
    return f'graph "{graph.name}" {{\n{nodes}{edges}}}\n'
