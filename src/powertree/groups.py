"""Finite group catalog: cyclic, dihedral, dicyclic, abelian and permutation groups.

Every group is materialized on indices 0..order-1 with index 0 the identity.
A group keeps one representation: its element list, the index of each element,
and the multiplication oracle on elements. No Cayley table is built; the power
graph and the tree counts read only the cyclic closures computed from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct
from math import factorial

from .errors import InvalidSpec, NotPrime, UnsupportedOrder
from .numutil import is_prime

DEFAULT_MAX_ORDER = 10_000
MAX_PERM_DEGREE = 8

KINDS = (
    "cyclic",
    "dihedral",
    "quaternion",
    "elemabelian",
    "sym",
    "alt",
    "semidirect",
    "product",
    "perm",
)


def max_order() -> int:
    """Configured order cap (env KAPPA_MAX_ORDER, default 10000)."""
    raw = os.environ.get("KAPPA_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec(f"KAPPA_MAX_ORDER must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class GroupSpec:
    """Constructor recipe for a catalog group.

    params is kind-specific: (n,) for cyclic/dihedral/quaternion, (p, k) for
    elemabelian, (m,) for sym/alt, (p, q) for semidirect, (degree,) for perm.
    Direct products carry their two factor specs; permutation groups carry
    0-based image tuples as generators.
    """

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()
    generators: tuple[tuple[int, ...], ...] = ()

    def render(self) -> str:
        """Canonical spec-grammar text; parse_group_spec inverts this."""
        k, p = self.kind, self.params
        if k in ("cyclic", "dihedral", "quaternion", "sym", "alt"):
            return f"{k}:{p[0]}"
        if k == "elemabelian":
            return f"elemabelian:{p[0]}^{p[1]}"
        if k == "semidirect":
            return f"semidirect:{p[0]}:{p[1]}"
        if k == "product":
            a, b = self.factors
            return f"product:({a.render()})x({b.render()})"
        if k == "perm":
            gens = ";".join(_cycle_notation(g) for g in self.generators)
            return f"perm:{p[0]}:{gens}"
        raise InvalidSpec(f"unknown spec kind {k!r}")


def _cycle_notation(perm: tuple[int, ...]) -> str:
    """Disjoint-cycle string, 1-based, fixed points omitted; identity is '()'."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = perm[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def perm_parity(perm: tuple[int, ...]) -> int:
    """+1 for even permutations, -1 for odd."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class FiniteGroup:
    """Immutable finite group with elements indexed 0..order-1, 0 = identity.

    element_order[i] is the order of element i; cyclic_closure[i] is the
    index set of the cyclic subgroup generated by element i.
    """

    __slots__ = (
        "name",
        "order",
        "element_order",
        "cyclic_closure",
        "_elements",
        "_index",
        "_mul_raw",
        "_reprs",
    )

    def __init__(self, name, elements, mul, reprs=None):
        self.name = name
        self.order = len(elements)
        if self.order == 0:
            raise InvalidSpec("a group needs at least the identity element")
        self._reprs = reprs
        self._elements = list(elements)
        self._index = {e: i for i, e in enumerate(elements)}
        self._mul_raw = mul
        for i in {1, self.order - 1, self.order // 2} & set(range(self.order)):
            if self.multiply(0, i) != i or self.multiply(i, 0) != i:
                raise InvalidSpec(f"element 0 of {name} is not the identity")
        self.cyclic_closure = [self._closure(i) for i in range(self.order)]
        self.element_order = [len(c) for c in self.cyclic_closure]

    def multiply(self, a: int, b: int) -> int:
        return self._index[self._mul_raw(self._elements[a], self._elements[b])]

    def inverse(self, a: int) -> int:
        closure = sorted(self.cyclic_closure[a])
        for b in closure:
            if self.multiply(a, b) == 0:
                return b
        raise InvalidSpec(f"no inverse for element {a} of {self.name}")

    def _closure(self, x: int) -> frozenset[int]:
        members = {0}
        y = x
        while y != 0:
            members.add(y)
            y = self.multiply(y, x)
        return frozenset(members)

    def element_repr(self, i: int) -> str:
        if self._reprs is not None:
            return self._reprs[i]
        return str(i)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _check_cap(order: int, what: str) -> None:
    cap = max_order()
    if order > cap:
        raise UnsupportedOrder(f"{what} has order {order} > cap {cap}")


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidSpec(f"cyclic group needs n >= 1, got {n}")
    _check_cap(n, f"Z_{n}")
    reprs = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return FiniteGroup(f"Z_{n}", list(range(n)), lambda a, b: (a + b) % n, reprs)


def _rot_repr(i: int, j: int) -> str:
    xs = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
    if j == 0:
        return xs
    return "y" if i == 0 else f"{xs}y"


def _dihedral(n: int) -> FiniteGroup:
    """Order 2n, presented by rotations x (order n) and a reflection y."""
    if n < 1:
        raise InvalidSpec(f"dihedral parameter needs n >= 1, got {n}")
    _check_cap(2 * n, f"D_{2 * n}")
    elements = [(i, j) for j in (0, 1) for i in range(n)]

    def mul(e1, e2):
        i1, j1 = e1
        i2, j2 = e2
        if j1 == 0:
            return ((i1 + i2) % n, j2)
        return ((i1 - i2) % n, 1 - j2)

    reprs = [_rot_repr(i, j) for (i, j) in elements]
    return FiniteGroup(f"D_{2 * n}", elements, mul, reprs)


def _quaternion(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: x of order 2n, y^2 = x^n, y x y^-1 = x^-1."""
    if n < 1:
        raise InvalidSpec(f"quaternion parameter needs n >= 1, got {n}")
    _check_cap(4 * n, f"Q_{4 * n}")
    m = 2 * n
    elements = [(i, j) for j in (0, 1) for i in range(m)]

    def mul(e1, e2):
        i1, j1 = e1
        i2, j2 = e2
        if j1 == 0:
            return ((i1 + i2) % m, j2)
        if j2 == 0:
            return ((i1 - i2) % m, 1)
        return ((i1 - i2 + n) % m, 0)

    reprs = [_rot_repr(i, j) for (i, j) in elements]
    return FiniteGroup(f"Q_{4 * n}", elements, mul, reprs)


def _elemabelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise InvalidSpec(f"elementary abelian base must be prime, got {p}")
    if k < 1:
        raise InvalidSpec(f"elementary abelian rank needs k >= 1, got {k}")
    order = p**k
    _check_cap(order, f"Z_{p}^{k}")
    elements = list(iproduct(range(p), repeat=k))

    def mul(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    name = f"Z_{p}" if k == 1 else f"Z_{p}^{k}"
    reprs = ["(" + ",".join(map(str, e)) + ")" for e in elements]
    return FiniteGroup(name, elements, mul, reprs)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b."""
    return tuple(b[x] for x in a)


def _perm_closure(degree, generators, name):
    identity = tuple(range(degree))
    cap = max_order()
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                h = _compose(e, g)
                if h not in index:
                    index[h] = len(elements)
                    elements.append(h)
                    nxt.append(h)
                    if len(elements) > cap:
                        raise UnsupportedOrder(
                            f"{name} exceeds the order cap {cap}"
                        )
        frontier = nxt
    reprs = [_cycle_notation(e) for e in elements]
    return FiniteGroup(name, elements, _compose, reprs)


def _symmetric(m: int) -> FiniteGroup:
    if not 1 <= m <= MAX_PERM_DEGREE:
        raise InvalidSpec(f"sym degree must be 1..{MAX_PERM_DEGREE}, got {m}")
    _check_cap(factorial(m), f"S_{m}")
    gens = []
    if m >= 2:
        gens.append(tuple([1, 0] + list(range(2, m))))
    if m >= 3:
        gens.append(tuple(list(range(1, m)) + [0]))
    return _perm_closure(m, gens, f"S_{m}")


def _alternating(m: int) -> FiniteGroup:
    if not 1 <= m <= MAX_PERM_DEGREE:
        raise InvalidSpec(f"alt degree must be 1..{MAX_PERM_DEGREE}, got {m}")
    _check_cap(max(1, factorial(m) // 2), f"A_{m}")
    gens = []
    if m >= 3:
        gens.append(tuple([1, 2, 0] + list(range(3, m))))
        if m % 2 == 1:
            gens.append(tuple(list(range(1, m)) + [0]))
        elif m >= 4:
            gens.append(tuple([0] + list(range(2, m)) + [1]))
    return _perm_closure(m, gens, f"A_{m}")


def _semidirect(p: int, q: int) -> FiniteGroup:
    """Nonabelian Z_p x| Z_q of order pq, for primes with q | p - 1.

    The generator of Z_q acts as x -> x^r with r the smallest integer > 1
    of multiplicative order q mod p, which fixes the group up to isomorphism.
    """
    if not is_prime(p) or not is_prime(q):
        raise InvalidSpec(f"semidirect needs two primes, got ({p}, {q})")
    if (p - 1) % q != 0:
        raise InvalidSpec(f"semidirect needs q | p-1, got ({p}, {q})")
    _check_cap(p * q, f"Z_{p}:Z_{q}")
    r = next(r for r in range(2, p) if pow(r, q, p) == 1)
    rpow = [pow(r, b, p) for b in range(q)]
    elements = [(a, b) for a in range(p) for b in range(q)]

    def mul(e1, e2):
        a1, b1 = e1
        a2, b2 = e2
        return ((a1 + a2 * rpow[b1]) % p, (b1 + b2) % q)

    reprs = [f"({a},{b})" for (a, b) in elements]
    return FiniteGroup(f"Z_{p}⋊Z_{q}", elements, mul, reprs)


def _permutation(degree: int, generators) -> FiniteGroup:
    if degree < 1:
        raise InvalidSpec(f"permutation degree must be >= 1, got {degree}")
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise InvalidSpec(f"{g} is not a permutation of degree {degree}")
    gen_str = ";".join(_cycle_notation(tuple(g)) for g in generators)
    return _perm_closure(degree, [tuple(g) for g in generators], f"⟨{gen_str}⟩")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a * |h| + b."""
    order = g.order * h.order
    _check_cap(order, f"{g.name}×{h.name}")
    elements = [(a, b) for a in range(g.order) for b in range(h.order)]

    def mul(e1, e2):
        return (g.multiply(e1[0], e2[0]), h.multiply(e1[1], e2[1]))

    reprs = [f"({g.element_repr(a)},{h.element_repr(b)})" for (a, b) in elements]
    return FiniteGroup(f"{g.name}×{h.name}", elements, mul, reprs)


def build(spec: GroupSpec) -> FiniteGroup:
    """Materialize a GroupSpec into a FiniteGroup."""
    k = spec.kind
    if k == "cyclic":
        return _cyclic(spec.params[0])
    if k == "dihedral":
        return _dihedral(spec.params[0])
    if k == "quaternion":
        return _quaternion(spec.params[0])
    if k == "elemabelian":
        return _elemabelian(*spec.params)
    if k == "sym":
        return _symmetric(spec.params[0])
    if k == "alt":
        return _alternating(spec.params[0])
    if k == "semidirect":
        return _semidirect(*spec.params)
    if k == "product":
        a, b = spec.factors
        return direct_product(build(a), build(b))
    if k == "perm":
        return _permutation(spec.params[0], spec.generators)
    raise InvalidSpec(f"unknown spec kind {k!r}")


def spectrum(g: FiniteGroup) -> tuple[set[int], set[int]]:
    """Element-order set and its divisibility-maximal members."""
    omega = set(g.element_order)
    mu = {
        a
        for a in omega
        if not any(b != a and b % a == 0 for b in omega)
    }
    return omega, mu


def count_cyclic_subgroups(g: FiniteGroup, p: int) -> int:
    """Number of distinct cyclic subgroups of prime order p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    subgroups = {
        g.cyclic_closure[i] for i in range(g.order) if g.element_order[i] == p
    }
    return len(subgroups)
