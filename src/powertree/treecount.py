"""Exact spanning-tree counting.

Independent routes to the same number: the all-ones-plus-Laplacian
determinant det(J+Q)/n^2, multiplication over biconnected blocks, and, for
power graphs, the weighted count on the quotient by cyclic subgroups. The
graph routes work on a MultiGraph; a PowerGraph enters through
`as_multigraph`, the one conversion. A disconnected graph counts 0 trees on
every route; `connected` is the one connectivity search, run on a
MultiGraph's edges and on a reduced power graph's class inclusions. The
brute-force oracles that check them live with the tests.

The quotient's weighted count is the determinant of its Laplacian with one
root's row and column deleted, found by exact sparse elimination in
minimum-degree order. That matrix is positive semidefinite, so a zero pivot
has a zero row: some component has no path to the root, and the count is 0.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import DiscrepancyDetected, InvalidSpec, TooLarge
from .numutil import format_decimal, format_factored, try_factorize

FACTOR_VALUE_LIMIT = 10**150

# The largest dense determinant the package starts: det FILE, the
# matrix-tree route, each block of the decomposition route, and verify's
# Z_n. By Bareiss on one core of a shared x86-64 host (Python 3.11), the
# 360-row det(J+Q) of a power graph took 12 s for A_6, 56 s for Z_360 and
# 72 s for D_360, whose entries grow to more bits; A_6 must stay countable.
DENSE_MAX_DIM = 360


def check_dense_dim(dim: int, what: str) -> None:
    """Raise TooLarge, before any work, for a dense determinant above the cap."""
    if dim > DENSE_MAX_DIM:
        raise TooLarge(f"{what} capped at dimension {DENSE_MAX_DIM}, got {dim}")


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
    def from_powers(cls, powers) -> TreeNumber:
        """The count prod b^e over (base, exponent) pairs; e < 0 divides exactly."""
        powers = [(b, e) for b, e in powers if e and b != 1]
        num = prod(b**e for b, e in powers if e > 0)
        den = prod(b**-e for b, e in powers if e < 0)
        value, rem = divmod(num, den)
        if rem:
            raise DiscrepancyDetected(
                f"product of {num.bit_length()} bits not divisible by {den.bit_length()} bits"
            )
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

    def is_connected(self) -> bool:
        return connected(self.vertex_count, self._mult)

    def __repr__(self):
        return f"MultiGraph(n={self.vertex_count}, edges={self.edges()})"


def connected(vertex_count: int, pairs) -> bool:
    """Whether the graph on vertices 0..vertex_count-1 with edges `pairs`
    (u, v) is connected: a search from vertex 0 over bit rows, one OR per
    vertex reached."""
    rows = [0] * vertex_count
    for a, b in pairs:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    seen = frontier = 1 if rows else 0
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= reach
    return seen.bit_count() == len(rows)


def as_multigraph(graph) -> MultiGraph:
    """The one conversion of a PowerGraph, all multiplicities 1, for the graph routes."""
    if isinstance(graph, MultiGraph):
        return graph
    return MultiGraph(graph.vertex_count, graph.edges())


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
            ri[k + 1 :] = [(a * pivot - f * b) // prev for a, b in zip(ri[k + 1 :], rk[k + 1 :])]
        prev = pivot
    return sign * m[n - 1][n - 1]


def _ones_plus_laplacian(graph: MultiGraph) -> list[list[int]]:
    n = graph.vertex_count
    mat = [[1] * n for _ in range(n)]
    for u, v, m in graph.edges():
        mat[u][v] -= m
        mat[v][u] -= m
        mat[u][u] += m
        mat[v][v] += m
    return mat


def temperley_kappa(graph) -> TreeNumber:
    """Tree count as det(J+Q)/n^2, J all-ones, Q the multiplicity Laplacian."""
    n = graph.vertex_count
    if n < 1:
        raise ValueError("temperley_kappa needs at least one vertex")
    check_dense_dim(n, "matrix-tree")
    det = exact_integer_determinant(_ones_plus_laplacian(as_multigraph(graph)))
    q, r = divmod(det, n * n)
    if r != 0:
        raise DiscrepancyDetected(
            f"det(J+Q) of {det.bit_length()} bits not divisible by {n}^2"
        )
    return TreeNumber(q)


def _root_deleted_determinant(adj: list[dict], kept) -> tuple[int, int, int]:
    """(det, pivots, updates): det(L(G - r) + diag(w(v, r))) for the graph G
    on `kept`, with the pivots taken and the entries they updated.

    `adj[v]` maps each neighbour u of v to the Laplacian entry -w(u, v) and
    is consumed. The root r is the vertex of most neighbours. Each row holds
    its diagonal entry beside its neighbours' entries, so one rule updates
    them all: a pivot with k neighbours applies entry(a, b) -= x_a x_b / pivot
    to each of the k(k + 1)/2 pairs of its neighbours, a = b included. The
    pivots come in minimum-degree order from a bucket queue; a zero pivot
    gives 0. Every entry, and the pivot product, is a pair (numerator,
    denominator) of ints, reduced by one gcd when it is stored; the
    denominators stay positive because the pivots of a positive
    semidefinite matrix are.
    """
    root = max(kept, key=lambda v: len(adj[v]))
    rows = {v: adj[v] for v in kept if v != root}
    for v, row in rows.items():
        row[v] = -sum(row.values())  # the diagonal, so a row's length is its degree + 1
        row.pop(root, None)
        for u, x in row.items():
            row[u] = (x, 1)
    buckets = [set() for _ in range(len(rows) + 1)]
    for v, row in rows.items():
        buckets[len(row)].add(v)
    det_n, det_d = 1, 1
    low = pivots = updates = 0
    for _ in range(len(rows)):
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        row = rows.pop(v)
        pn, pd = row.pop(v)
        if not pn:
            return 0, pivots, updates
        n, d = det_n * pn, det_d * pd
        g = gcd(n, d)
        det_n, det_d = n // g, d // g
        nbrs = list(row.items())
        pivots += 1
        updates += len(nbrs) * (len(nbrs) + 1) // 2
        for a, _ in nbrs:
            buckets[len(rows[a])].discard(a)
        for i, (a, (xn, xd)) in enumerate(nbrs):
            ra = rows[a]
            del ra[v]
            # f = x / pivot, and entry -= f * y for this and each later
            # neighbour y; off-diagonal entries only grow in size, so the
            # nonzero pattern is exactly the symbolic fill
            fn, fd = xn * pd, xd * pn
            g = gcd(fn, fd)
            fn, fd = fn // g, fd // g
            for b, (yn, yd) in nbrs[i:]:
                tn, td = fn * yn, fd * yd
                entry = ra.get(b)
                if entry is None:
                    n, d = -tn, td
                else:
                    en, ed = entry
                    n, d = en * td - tn * ed, ed * td
                g = gcd(n, d)
                ra[b] = rows[b][a] = (n // g, d // g)
        for a, _ in nbrs:
            degree = len(rows[a])
            buckets[degree].add(a)
            low = min(low, degree)
    if det_d != 1:
        raise DiscrepancyDetected(
            f"pivot product of {det_n.bit_length()} bits over"
            f" {det_d.bit_length()} bits is not an integer"
        )
    return det_n, pivots, updates


def closed_degrees(poset, drop: int = 0) -> list[int]:
    """d_C + 1 per class C of a CyclicPoset: each generator of C is joined to
    the |C| - 1 other elements of C and to the generators of every class above
    C, so d_C + 1 = |C| + (generators above C). With `drop` = 1 the identity
    is deleted, one neighbour fewer for every other class."""
    orders, sizes, below = poset
    closed = [m - drop for m in orders]
    for d, inside in enumerate(below):
        for c in inside:
            closed[c] += sizes[d]
    return closed


def quotient_kappa(poset, reduced: bool = False) -> TreeNumber:
    """Tree count of the (reduced) power graph of a group from its CyclicPoset
    `poset`: per cyclic subgroup C its order, its k_C = phi(|C|) generators
    and the subgroups strictly inside it, the identity's class first.

    The k_C generators of C are closed twins of a common degree d_C. Each
    class adds the Laplacian eigenvalue d_C + 1 k_C - 1 times and collapses
    to one vertex of the comparability graph of cyclic subgroups, edge C-D
    carrying multiplicity k_C * k_D, so

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
    edge to r, Γ is disconnected, and the count is 0. Only the record is
    read; no group or power graph is needed.
    """
    _, sizes, below = poset
    if reduced and len(sizes) < 2:
        raise InvalidSpec("reduced power graph needs |G| >= 2")
    drop = 1 if reduced else 0
    # Laplacian off-diagonal entries -k_C * k_D of the quotient
    adj: list[dict] = [{} for _ in sizes]
    for d, inside in enumerate(below):
        for c in inside:
            if c >= drop:
                adj[c][d] = adj[d][c] = -sizes[c] * sizes[d]
    kept = range(drop, len(sizes))
    closed = closed_degrees(poset, drop)
    num = _root_deleted_determinant(adj, kept)[0] * prod(
        closed[c] ** (sizes[c] - 1) for c in kept
    )
    value, rem = divmod(num, prod(sizes[c] for c in kept))
    if rem:
        raise DiscrepancyDetected("quotient count not divisible by the class sizes")
    return TreeNumber(value)


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


def block_decomposition_kappa(graph) -> TreeNumber:
    """Tree count as a product over biconnected blocks.

    Deleting a cut vertex splits the count multiplicatively, so each block is
    counted by the determinant route in isolation. A cut edge of multiplicity
    m is a K_2 block contributing m. A disconnected graph counts 0, as on
    every route. Before its blocks are found, a graph is refused when it has
    more distinct edges than DENSE_MAX_DIM (n-1)/2, since blocks of b <= cap
    vertices hold b(b-1)/2 <= cap (b-1)/2 and b - 1 sums to n - 1; a power
    graph's connectivity and edge count are read from its subgroup poset.
    Then every block is checked.
    """
    if not graph.is_connected():
        return TreeNumber(0)
    distinct = len(graph._mult) if isinstance(graph, MultiGraph) else graph.edge_count()
    n = graph.vertex_count
    if 2 * distinct > DENSE_MAX_DIM * (n - 1):
        raise TooLarge(f"decomposition block capped at dimension {DENSE_MAX_DIM};"
                       f" {distinct} edges on {n} vertices need a larger block")
    blocks = _biconnected_blocks(as_multigraph(graph))
    verts = [sorted({x for u, v, _ in block for x in (u, v)}) for block in blocks]
    check_dense_dim(max(map(len, verts), default=0), "decomposition block")
    result = TreeNumber(1)
    for block, vs in zip(blocks, verts):
        pos = {x: i for i, x in enumerate(vs)}
        sub = MultiGraph(len(vs), [(pos[u], pos[v], m) for u, v, m in block])
        result = result * temperley_kappa(sub)
    return result
