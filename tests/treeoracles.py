"""Brute-force spanning-tree counts: the oracles the counting routes are checked against.

Enumeration and the deletion-contraction recurrence take time exponential in
the graph, so no command runs them; acceptance criterion 7 and the treecount
tests compare them with the matrix-tree count. `residue_kappa` checks the
quotient count above the dense cap, modulo a prime. `cyclic_poset` writes
Z_n's poset record from the divisors of n alone, so the quotient count can
be checked with no group built.
"""

from heapq import heapify, heappop, heappush

from powertree.errors import TooLarge
from powertree.groups import CyclicPoset
from powertree.numutil import divisors, phi
from powertree.powergraph import reduced_power_graph
from powertree.treecount import MultiGraph, TreeNumber, as_multigraph

# 2^61 - 1 and the largest prime below it: a wrong count escapes both only
# if their product divides its error
RESIDUE_PRIMES = (2**61 - 1, 2**61 - 31)


def degree(g: MultiGraph, v: int) -> int:
    return sum(m for (a, b), m in g._mult.items() if a == v or b == v)


def without_edge(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """Copy of g with the (u,v) edge removed at all multiplicities."""
    key = (u, v) if u < v else (v, u)
    h = MultiGraph(g.vertex_count)
    h._mult = {k: m for k, m in g._mult.items() if k != key}
    return h


def contracted(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """g with u and v identified (loops dropped); v's index disappears."""
    if u > v:
        u, v = v, u
    relabel = [x if x < v else (u if x == v else x - 1) for x in range(g.vertex_count)]
    h = MultiGraph(g.vertex_count - 1)
    for (a, b), m in g._mult.items():
        ra, rb = relabel[a], relabel[b]
        if ra == rb:
            continue
        key = (ra, rb) if ra < rb else (rb, ra)
        h._mult[key] = h._mult.get(key, 0) + m
    return h


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
    colors = [degree(g, v) for v in range(n)]
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
        result = rec(without_edge(h, u, v)) + m * rec(contracted(h, u, v))
        memo[key] = result
        return result

    return TreeNumber(rec(g))


def residue_kappa(g, p: int) -> int:
    """kappa(P(g)) mod the prime p, from the element graph, with no quotient.

    The identity is adjacent to every vertex, so deleting its row and column
    from the Laplacian of P(g) leaves L(P*(g)) + I, with P*(g) the reduced
    power graph; its determinant is found mod p by sparse elimination in
    minimum-degree order. A zero pivot mod p means an unlucky prime, as the
    matrix is positive definite, and raises ZeroDivisionError.
    """
    n = g.order - 1
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    diag = [1] * n
    for u, v in reduced_power_graph(g).edges() if n else ():  # Z_1: the empty matrix
        rows[u][v] = rows[v][u] = p - 1
        diag[u] += 1
        diag[v] += 1
    heap = [(len(row), v) for v, row in enumerate(rows)]
    heapify(heap)
    done = [False] * n
    det = 1
    while heap:
        size, v = heappop(heap)
        if done[v] or size != len(rows[v]):
            continue  # stale entry: v was eliminated or its row has grown
        done[v] = True
        pivot = diag[v] % p
        if not pivot:
            raise ZeroDivisionError(f"zero pivot mod {p}")
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        nbrs = list(rows[v].items())
        for i, (a, x) in enumerate(nbrs):
            ra = rows[a]
            del ra[v]
            f = x * inverse % p
            diag[a] = (diag[a] - f * x) % p
            for b, y in nbrs[i + 1 :]:
                ra[b] = rows[b][a] = (ra.get(b, 0) - f * y) % p
        for a, _ in nbrs:
            heappush(heap, (len(rows[a]), a))
    return det


def cyclic_poset(n: int) -> CyclicPoset:
    """The cyclic-subgroup poset of Z_n from the divisors of n alone: one
    class per divisor d, of order d with phi(d) generators, and below it the
    classes of the other divisors of d; divisor 1, the identity, is class 0."""
    divs = divisors(n)
    return CyclicPoset(tuple(divs), tuple(map(phi, divs)),
                       tuple(tuple(j for j, e in enumerate(divs) if e != d and d % e == 0) for d in divs))
