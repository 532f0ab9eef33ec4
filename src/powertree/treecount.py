"""Exact spanning-tree counting.

Independent routes to the same number: the all-ones-plus-Laplacian
determinant det(J+Q)/n^2, brute-force enumeration, the deletion-contraction
recurrence, multiplication over biconnected blocks, and, for power graphs,
the weighted count on the quotient by cyclic subgroups. The graph routes
work on a MultiGraph; a PowerGraph enters through `as_multigraph`, the one
conversion. A disconnected graph counts 0 trees on every route.

The quotient's weighted count is the determinant of its Laplacian with one
root's row and column deleted, found by exact sparse elimination in
minimum-degree order. That matrix is positive semidefinite, so a zero pivot
has a zero row: some component has no path to the root, and the count is 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import DiscrepancyDetected, TooLarge, TrivialGroup
from .numutil import format_decimal, format_factored, try_factorize

FACTOR_VALUE_LIMIT = 10**150


class TreeNumber:
    """Exact nonnegative tree count, with the (base, exponent) pairs it was
    computed from. A bare count is the one pair (value, 1) up to
    FACTOR_VALUE_LIMIT; past it, or at 0, it has no pairs and no factors.
    """

    __slots__ = ("value", "_powers", "_factors")

    def __init__(self, value: int):
        if value < 0:
            raise DiscrepancyDetected(f"negative tree count of {value.bit_length()} bits")
        self.value = value
        self._powers = [(value, 1)] if 0 < value <= FACTOR_VALUE_LIMIT else None
        self._factors = None

    @classmethod
    def from_powers(cls, name: str, powers) -> TreeNumber:
        """The count prod b^e over (base, exponent) pairs; e < 0 divides exactly."""
        powers = [(b, e) for b, e in powers if e and b != 1]
        value, rem = divmod(
            prod(b**e for b, e in powers if e > 0), prod(b**-e for b, e in powers if e < 0)
        )
        if rem:
            raise DiscrepancyDetected(f"kappa({name}) division not exact")
        count = cls(value)
        count._powers = powers
        return count

    @property
    def factorization(self) -> dict[int, int] | None:
        """The sum of the bases' factorizations, tried once, on first use.

        None without pairs; a base that resists factoring drops the pairs.
        """
        if self._factors is None and self._powers is not None:
            self._factors = self._factor()
        return self._factors

    def _factor(self) -> dict[int, int] | None:
        factors: dict[int, int] = {}
        for b, e in self._powers:
            base = try_factorize(b)
            if base is None:
                self._powers = None  # never tried again, nor in a product
                return None
            for p, m in base.items():
                factors[p] = factors.get(p, 0) + m * e
        factors = {p: e for p, e in factors.items() if e}
        if min(factors.values(), default=0) < 0 or prod(p**e for p, e in factors.items()) != self.value:
            raise DiscrepancyDetected(
                f"factors do not multiply back to the {self.value.bit_length()}-bit count"
            )
        return factors

    def factored(self) -> str:
        """'2^2*3^3*5', or the decimal value when there is no factorization."""
        return format_factored(self.factorization, self.value)

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, TreeNumber):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __mul__(self, other):
        if not isinstance(other, TreeNumber):
            return NotImplemented
        product = TreeNumber(self.value * other.value)
        both = self._powers is not None and other._powers is not None
        product._powers = self._powers + other._powers if both else None
        return product

    def __repr__(self):
        return f"TreeNumber({format_decimal(self.value)})"


class MultiGraph:
    """Undirected graph with edge multiplicities and no self-loops."""

    __slots__ = ("vertex_count", "_mult")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        self.vertex_count = vertex_count
        self._mult: dict[tuple[int, int], int] = {}
        for e in edges:
            self.add_edge(*e)

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise ValueError(f"edge ({u},{v}) outside vertex range")
        if mult < 1:
            raise ValueError("multiplicity must be >= 1")
        key = (u, v) if u < v else (v, u)
        self._mult[key] = self._mult.get(key, 0) + mult

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._mult.get(key, 0)

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((u, v, m) for (u, v), m in self._mult.items())

    def edge_count(self) -> int:
        return sum(self._mult.values())

    def degree(self, v: int) -> int:
        return sum(m for (a, b), m in self._mult.items() if a == v or b == v)

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        adj = [[] for _ in range(n)]
        for a, b in self._mult:
            adj[a].append(b)
            adj[b].append(a)
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    count += 1
                    stack.append(y)
        return count == n

    def without_edge(self, u: int, v: int) -> "MultiGraph":
        """Copy with the (u,v) edge removed at all multiplicities."""
        key = (u, v) if u < v else (v, u)
        g = MultiGraph(self.vertex_count)
        g._mult = {k: m for k, m in self._mult.items() if k != key}
        return g

    def contracted(self, u: int, v: int) -> "MultiGraph":
        """Identify u and v (loops dropped); v's index disappears."""
        if u > v:
            u, v = v, u
        relabel = [x if x < v else (u if x == v else x - 1) for x in range(self.vertex_count)]
        g = MultiGraph(self.vertex_count - 1)
        for (a, b), m in self._mult.items():
            ra, rb = relabel[a], relabel[b]
            if ra == rb:
                continue
            key = (ra, rb) if ra < rb else (rb, ra)
            g._mult[key] = g._mult.get(key, 0) + m
        return g

    def __repr__(self):
        return f"MultiGraph(n={self.vertex_count}, edges={self.edges()})"


def as_multigraph(graph) -> MultiGraph:
    """The one conversion of a PowerGraph, all multiplicities 1, for the graph routes."""
    if isinstance(graph, MultiGraph):
        return graph
    g = MultiGraph(graph.vertex_count)
    for u, v in graph.edges():
        g.add_edge(u, v)
    return g


def exact_integer_determinant(matrix) -> int:
    """Determinant over exact integers via fraction-free elimination.

    Entries after step k are (k+1)-minors of the input, so every pivot
    division is exact and intermediate growth obeys Hadamard's bound.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
        for x in row:
            if type(x) is not int:  # bool is an int subclass
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            if f:
                ri[k + 1 :] = [
                    (a * pivot - f * b) // prev
                    for a, b in zip(ri[k + 1 :], rk[k + 1 :])
                ]
            else:
                ri[k + 1 :] = [a * pivot // prev for a in ri[k + 1 :]]
        prev = pivot
    return sign * m[n - 1][n - 1]


def _ones_plus_laplacian(graph: MultiGraph) -> list[list[int]]:
    n = graph.vertex_count
    mat = [[1] * n for _ in range(n)]
    deg = [0] * n
    for u, v, m in graph.edges():
        mat[u][v] -= m
        mat[v][u] -= m
        deg[u] += m
        deg[v] += m
    for i in range(n):
        mat[i][i] = 1 + deg[i]
    return mat


def temperley_kappa(graph) -> TreeNumber:
    """Tree count as det(J+Q)/n^2, J all-ones, Q the multiplicity Laplacian."""
    n = graph.vertex_count
    if n < 1:
        raise ValueError("temperley_kappa needs at least one vertex")
    det = exact_integer_determinant(_ones_plus_laplacian(as_multigraph(graph)))
    q, r = divmod(det, n * n)
    if r != 0:
        raise DiscrepancyDetected(
            f"det(J+Q) of {det.bit_length()} bits not divisible by {n}^2"
        )
    if q < 0:
        raise DiscrepancyDetected("negative tree count from determinant")
    return TreeNumber(q)


def _root_deleted_determinant(adj: list[dict], kept) -> int:
    """det(L(G - r) + diag(w(v, r))) for the graph G on `kept`.

    `adj[v]` maps each neighbour u of v to the Laplacian entry -w(u, v) and
    is consumed. The root r is the vertex of most neighbours. The pivots
    come in minimum-degree order from a bucket queue; a zero pivot gives 0.
    """
    root = max(kept, key=lambda v: len(adj[v]))
    diag = {v: Fraction(-sum(adj[v].values())) for v in kept}
    rows = {v: adj[v] for v in kept if v != root}
    for row in rows.values():
        row.pop(root, None)
    buckets = [set() for _ in range(len(rows))]
    for v, row in rows.items():
        buckets[len(row)].add(v)
    det = Fraction(1)
    low = 0
    for _ in range(len(rows)):
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        pivot = diag[v]
        if not pivot:
            return 0
        det *= pivot
        row = rows.pop(v)
        nbrs = list(row.items())
        for a, _ in nbrs:
            buckets[len(rows[a])].discard(a)
        for i, (a, x) in enumerate(nbrs):
            ra = rows[a]
            del ra[v]
            f = x / pivot
            diag[a] -= f * x
            # Schur update; off-diagonal entries only grow in size, so the
            # nonzero pattern is exactly the symbolic fill
            for b, y in nbrs[i + 1 :]:
                ra[b] = rows[b][a] = ra.get(b, 0) - f * y
        for a, _ in nbrs:
            degree = len(rows[a])
            buckets[degree].add(a)
            low = min(low, degree)
    if det.denominator != 1:
        raise DiscrepancyDetected(
            f"pivot product of {det.numerator.bit_length()} bits over"
            f" {det.denominator.bit_length()} bits is not an integer"
        )
    return det.numerator


def quotient_kappa(group, reduced: bool = False) -> TreeNumber:
    """Tree count of the (reduced) power graph of `group` from its cyclic subgroups.

    The k_C = phi(|C|) generators of a cyclic subgroup C are closed twins of
    a common degree d_C. Each class adds the Laplacian eigenvalue d_C + 1
    k_C - 1 times and collapses to one vertex of the comparability graph of
    cyclic subgroups, edge C-D carrying multiplicity k_C * k_D, so

        kappa = prod_C (d_C + 1)^(k_C - 1) * tau_W / prod_C k_C

    with tau_W the weighted tree count of that quotient Γ. The reduced graph
    drops the identity class. tau_W is the determinant of Γ's weighted
    Laplacian with one root r's row and column deleted, which is
    L(Γ - r) + diag(w(C, r)). On the full graph r is the identity class,
    adjacent to every class, so the matrix splits into one block per
    component of the reduced quotient; on the reduced graph r is the class
    of most neighbours. Sparse exact elimination in minimum-degree order
    removes leaves, stars and series chains without fill. The matrix is
    positive semidefinite, and so is each Schur complement at a positive
    pivot, so a zero pivot has a zero row: a component of Γ - r has no
    edge to r, Γ is disconnected, and the count is 0. Only
    `group.cyclic_subgroups` and `group.cyclic_class` are read; no power
    graph is built.
    """
    if reduced and group.order < 2:
        raise TrivialGroup("reduced power graph needs |G| >= 2")
    subgroups = group.cyclic_subgroups
    cls = group.cyclic_class
    sizes = [0] * len(subgroups)
    for c in cls:
        sizes[c] += 1
    drop = 1 if reduced else 0
    # Laplacian off-diagonal entries -k_C * k_D of the quotient
    adj: list[dict] = [{} for _ in sizes]
    # generators of strictly larger cyclic subgroups, per class
    up = [0] * len(sizes)
    for c, s in enumerate(subgroups):
        # each comparable pair once, from the larger subgroup
        for b in {cls[y] for y in s} - {c}:
            up[b] += sizes[c]
            if b >= drop:
                adj[c][b] = adj[b][c] = -sizes[c] * sizes[b]
    kept = range(drop, len(sizes))
    # d_C + 1 = |C| + (generators above C), less the identity when reduced
    num = _root_deleted_determinant(adj, kept) * prod(
        (len(subgroups[c]) - drop + up[c]) ** (sizes[c] - 1) for c in kept
    )
    value, rem = divmod(num, prod(sizes[c] for c in kept))
    if rem:
        raise DiscrepancyDetected("quotient count not divisible by the class sizes")
    return TreeNumber(value)


def enumerate_spanning_trees(graph) -> TreeNumber:
    """Count spanning trees by backtracking over edge subsets.

    Parallel edges count as distinct trees. Valid when the graph has at most
    12 vertices or at most 24 edge instances.
    """
    g = as_multigraph(graph)
    n = g.vertex_count
    total_edges = g.edge_count()
    if n > 12 and total_edges > 24:
        raise TooLarge(
            f"enumeration capped at 12 vertices or 24 edges, got {n} and {total_edges}"
        )
    if n <= 1:
        return TreeNumber(1)
    instances = []
    for u, v, m in g.edges():
        instances.extend([(u, v)] * m)
    need = n - 1
    parent = list(range(n))
    rank = [0] * n

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    count = 0

    def rec(i: int, chosen: int) -> None:
        nonlocal count
        if chosen == need:
            count += 1
            return
        if len(instances) - i < need - chosen:
            return
        u, v = instances[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            # union by rank, undone after the branch
            if rank[ru] < rank[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            bumped = rank[ru] == rank[rv]
            if bumped:
                rank[ru] += 1
            rec(i + 1, chosen + 1)
            parent[rv] = rv
            if bumped:
                rank[ru] -= 1
        rec(i + 1, chosen)

    rec(0, 0)
    return TreeNumber(count)


def _canonical_key(g: MultiGraph):
    """Color-refined relabeling key; equal keys imply isomorphic graphs."""
    n = g.vertex_count
    colors = [g.degree(v) for v in range(n)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), m in g._mult.items():
        adj[a].append((b, m))
        adj[b].append((a, m))
    for _ in range(n):
        sigs = [
            (colors[v], tuple(sorted((m, colors[w]) for w, m in adj[v])))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [palette[s] for s in sigs]
        if new_colors == colors:
            break
        colors = new_colors
    order = sorted(range(n), key=lambda v: (colors[v], v))
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for (a, b), m in g._mult.items():
        ra, rb = pos[a], pos[b]
        edges.append((min(ra, rb), max(ra, rb), m))
    return (n, tuple(sorted(edges)))


def deletion_contraction_kappa(graph) -> TreeNumber:
    """Tree count via kappa(G) = kappa(G - e) + kappa(G . e), memoized.

    An edge of multiplicity m contributes kappa(G without the edge) plus
    m * kappa(G contracted at it), which is the recurrence applied to each
    of the m parallel instances in turn. Capped at 14 vertices.
    """
    g = as_multigraph(graph)
    if g.vertex_count > 14:
        raise TooLarge("deletion-contraction capped at 14 vertices")
    memo: dict = {}

    def rec(h: MultiGraph) -> int:
        n = h.vertex_count
        if n == 1:
            return 1
        total = h.edge_count()
        if total < n - 1 or not h.is_connected():
            return 0
        if total == n - 1:
            return 1
        if n == 2:
            return next(iter(h._mult.values()))
        key = _canonical_key(h)
        found = memo.get(key)
        if found is not None:
            return found
        (u, v), m = next(iter(h._mult.items()))
        result = rec(h.without_edge(u, v)) + m * rec(h.contracted(u, v))
        memo[key] = result
        return result

    return TreeNumber(rec(g))


def _biconnected_blocks(g: MultiGraph) -> list[list[tuple[int, int, int]]]:
    """Blocks as lists of (u, v, multiplicity), via an iterative lowpoint DFS.

    Parallel edges never separate a block, so each distinct edge is walked
    once under one edge id and keeps its multiplicity.
    """
    n = g.vertex_count
    edges = g.edges()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[int] = []
    blocks: list[list[tuple[int, int, int]]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pe, it = stack[-1]
            advanced = False
            for w, eid in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u, _, _ = stack[-1]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        eid = edge_stack.pop()
                        block.append(edges[eid])
                        if eid == pe:
                            break
                    blocks.append(block)
    return blocks


def block_decomposition_kappa(graph, inner=None) -> TreeNumber:
    """Tree count as a product over biconnected blocks.

    Deleting a cut vertex splits the count multiplicatively; iterating that
    over the whole block tree lets `inner` (default the determinant route)
    handle each block in isolation. A cut edge of multiplicity m is a K_2
    block contributing m. A disconnected graph counts 0, as on every route.
    """
    if inner is None:
        inner = temperley_kappa
    g = as_multigraph(graph)
    if not g.is_connected():
        return TreeNumber(0)
    result = TreeNumber(1)
    for block in _biconnected_blocks(g):
        verts = sorted({x for u, v, _ in block for x in (u, v)})
        pos = {x: i for i, x in enumerate(verts)}
        sub = MultiGraph(len(verts))
        for u, v, m in block:
            sub.add_edge(pos[u], pos[v], m)
        result = result * inner(sub)
    return result
