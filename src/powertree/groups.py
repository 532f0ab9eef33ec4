"""Finite group catalog: cyclic, dihedral, dicyclic, abelian and permutation groups.

An element is its index in 0..order-1, index 0 the identity. A group keeps the
multiplication and label callables on indices it is handed, as its multiply and
element_repr (no Cayley table, no element objects): Z_n, D_2n, Q_4n, pq groups,
elementary abelian groups and direct products multiply by index arithmetic. Only
a permutation group keeps its elements, each the byte string of its images on at
most 256 points, and the index of each; two compose by one bytes.translate.
The group also owns its poset of cyclic subgroups as one record, a
CyclicPoset, filled from the powers of one element per cyclic subgroup; Z_n, D_2n
and Q_4n, one rotation kind made by one builder, run no walk: cyclic_poset(m) writes
the record of the rotations x of order m from the divisors of m, and the x^i y add
their classes after it. The power graph and the tree counts read only that record
and each element's class in it. Each kind lists an element's powers by its own
rule: a permutation through its own padded table, Z_n, D_2n and Q_4n by arithmetic, a
direct product from its factors' powers, and the rest by multiplying. Each builder
writes its group's name once and hands it to check_order, which refuses an order
above the cap before any work; a permutation closure, whose order is known only
when its walk ends, also stops as soon as it outgrows the cap.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from functools import cache, lru_cache
from math import factorial, gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import InvalidSpec, TooLarge
from .numutil import divisors, is_prime, phi

DEFAULT_MAX_ORDER = 10_000
MAX_PERM_DEGREE = 8  # sym and alt
MAX_PERM_POINTS = 256  # perm: a permutation is the byte string of its images
MAX_PRODUCT_DEPTH = 100  # parse, build and render recurse once per level
_POINTS = bytes(range(MAX_PERM_POINTS))
_CYCLE_OPENS = ["(" + str(j + 1) for j in range(MAX_PERM_POINTS)]  # a cycle's first point
_CYCLE_POINTS = [" " + str(j + 1) for j in range(MAX_PERM_POINTS)]  # each point after it

def max_order() -> int:
    """Configured order cap (env KAPPA_MAX_ORDER, default 10000)."""
    raw = os.environ.get("KAPPA_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec(f"KAPPA_MAX_ORDER must be an integer, got {raw!r}") from None


class GroupSpec(NamedTuple):
    """Constructor recipe for a catalog group.

    params are the integers of a kind in KINDS, or perm's (degree,).
    A product carries its two factor specs; a perm group carries 0-based
    image tuples as generators.
    """

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()
    generators: tuple[tuple[int, ...], ...] = ()

    def render(self) -> str:
        """Canonical spec-grammar text; parse_group_spec inverts this."""
        return _render(self, 0)


def _render(spec: GroupSpec, depth: int) -> str:
    row = _row(spec, depth)
    if row is not None:
        return f"{spec.kind}:" + row.sep.join(map(str, spec.params))
    if spec.kind == "product":
        a, b = spec.factors
        return f"product:({_render(a, depth + 1)})x({_render(b, depth + 1)})"
    gens = ";".join(_cycle_notation(g) for g in spec.generators)
    return f"perm:{spec.params[0]}:{gens}"


def _cycle_notation(perm) -> str:
    """Disjoint cycles, 1-based, of an image tuple or byte string; identity is '()'."""
    seen = 0  # bit j set once point j is written
    text = ""
    for start, image in enumerate(perm):
        if image == start or seen >> start & 1:
            continue
        text += _CYCLE_OPENS[start]
        seen |= 1 << start
        j = image
        while j != start:
            seen |= 1 << j
            text += _CYCLE_POINTS[j]
            j = perm[j]
        text += ")"
    return text or "()"


class CyclicPoset(NamedTuple):
    """The cyclic subgroups of a group, indexed by class, the identity's {0} at 0.

    orders[c] is |C|, sizes[c] = phi(|C|) counts C's generators, and below[c]
    lists each class strictly inside C once, the identity's class 0 first.
    """

    orders: tuple[int, ...]
    sizes: tuple[int, ...]
    below: tuple[tuple[int, ...], ...]


class FiniteGroup:
    """Immutable finite group with elements indexed 0..order-1, 0 = identity.

    cyclic_class[i] is the class of <i> in `poset`, the one record of the
    cyclic subgroups; classes are numbered in order of their first element,
    and the elements of one class are the generators of its subgroup.
    multiply and element_repr are the callables handed in as `mul` and
    `label`: multiply(a, b) is the index of the product of elements a and b,
    and element_repr(i) is element i's text, made only when asked.
    """

    __slots__ = ("name", "order", "poset", "cyclic_class", "multiply", "element_repr")

    def __init__(self, name, order, mul, label):
        self.name = name
        self.order = order
        if order < 1:
            raise InvalidSpec("a group needs at least the identity element")
        self.multiply, self.element_repr = mul, label
        for i in {1, order - 1, order // 2}:
            if i < order and (mul(0, i) != i or mul(i, 0) != i):
                raise InvalidSpec(f"element 0 of {name} is not the identity")
        self.cyclic_class, self.poset = self._classes()

    def _classes(self) -> tuple[list[int], CyclicPoset]:
        """(cyclic_class, poset) from the powers of one element x per cyclic
        subgroup <x>, in order of each subgroup's first element x."""
        orders, sizes, below = [], [], []
        cls = [-1] * self.order
        positions = {}  # _positions(m) per order m met in this group
        for x, seen in enumerate(cls):
            if seen != -1:
                continue
            powers = self.powers(x)  # powers[k] = x^k
            if (m := len(powers)) not in positions:
                positions[m] = _positions(m)
            generators, inside = positions[m]
            c = len(orders)
            for k in generators:
                cls[powers[k]] = c
            orders.append(len(powers))
            sizes.append(len(generators))
            below.append([powers[k] for k in inside])
        # the elements of `below` to their classes, now that all are known
        below = tuple([tuple([cls[y] for y in inside]) for inside in below])
        return cls, CyclicPoset(tuple(orders), tuple(sizes), below)

    def powers(self, i: int) -> list[int]:
        """The indices of i^0, i^1, ..., i^(m-1), m the order of i, by multiplying."""
        mul = self.multiply
        powers, y = [0], i
        while y != 0:
            powers.append(y)
            y = mul(y, i)
        return powers

    @property
    def cyclic_closure(self) -> list[frozenset[int]]:
        """<i> as an index set for every element i, built from the record when read."""
        generators = [[] for _ in self.poset.below]
        for x, c in enumerate(self.cyclic_class):
            generators[c].append(x)
        members = [frozenset(generators[c]).union(*(generators[b] for b in below))
                   for c, below in enumerate(self.poset.below)]
        return [members[c] for c in self.cyclic_class]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _positions(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(generators, inside) for <x> of order m, as ascending exponents k of x^k:
    the k with gcd(k, m) = 1, which generate <x> (k = 0 only for m = 1), and,
    by cyclic_poset's rule, k = 0 with the divisors 1 < k < m of m, x^k
    generating <x>'s one subgroup of order m / k."""
    if m == 1:
        return (0,), ()
    return tuple([k for k in range(1, m) if gcd(k, m) == 1]), (0, *divisors(m)[1:-1])


def _multiples(i: int, n: int) -> list[int]:
    """i*k mod n for k = 0, 1, ...: the exponents of the powers of x^i in <x> of order n."""
    return [k % n for k in range(0, lcm(i, n), i)] if i else [0]


def check_order(order: int, name: str) -> None:
    """Raise TooLarge, before any work, for a group above the order cap."""
    cap = max_order()
    if order > cap:
        raise TooLarge(f"{name} has order {order} > cap {cap}")


@lru_cache(maxsize=1)  # a closed form after a build asks for the same record
def cyclic_poset(n: int) -> CyclicPoset:
    """Z_n's record, written from the divisors of n and numbered as the power
    walk numbers it. <i> = <gcd(i, n)>, and the first element of <d> is d, so
    class c >= 1 is <d> for the c-th smallest divisor d < n, of order n / d:
    the orders are 1, n, then the middle divisors of n descending. Inside <d>
    lie {0} and the <k*d> for the divisors 1 < k < n / d of n / d, in the
    walk's order of ascending k."""
    divs = divisors(n)
    firsts = [n, *divs[:-1]]  # class c is <firsts[c]>
    cls = {d: c for c, d in enumerate(firsts)}
    orders = tuple(n // d for d in firsts)
    below = tuple((0, *(cls[k * d] for k in divs[1:] if k < m and m % k == 0)) if m > 1 else ()
                  for d, m in zip(firsts, orders))
    return CyclicPoset(orders, tuple(map(phi, orders)), below)


def _rot_repr(i: int, j: int) -> str:
    xs = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
    if j == 0:
        return xs
    return "y" if i == 0 else f"{xs}y"


def _rotations(kind: str, n: int, name: str, m: int, square: int | None) -> FiniteGroup:
    """The spec kind:n as the _RotationGroup `name` of x of order m and y^2 = x^square."""
    if n < 1:
        raise InvalidSpec(f"{kind} parameter needs n >= 1, got {n}")
    check_order(m if square is None else 2 * m, name)
    return _RotationGroup(name, m, square)


class _RotationGroup(FiniteGroup):
    """x of order m, and unless square is None (Z_m) a y with y^2 = x^square;
    x^i y^j at index j*m + i. An element's powers come by arithmetic, and the
    classes with no power walk: the rotations' from cyclic_poset(m), and
    (x^i y)^2 = x^square, so x^i y has order 2 when square = 0 (D_2m) and
    order 4, with x^(i+square) y the other generator, otherwise (Q_2m)."""

    __slots__ = ("_m", "_square")

    def __init__(self, name, m, square):
        self._m, self._square = m, square

        def mul(a, b):
            if a < m:  # x^i1 x^i2 y^j2
                return b - b % m + (a + b) % m
            if b < m:  # x^i1 y x^i2 = x^(i1-i2) y
                return m + (a - b) % m
            return (a - b + square) % m  # x^i1 y x^i2 y = x^(i1-i2) y^2

        order = m if square is None else 2 * m
        super().__init__(name, order, mul, lambda i: _rot_repr(i % m, i // m))

    def _classes(self) -> tuple[list[int], CyclicPoset]:
        """Numbered as the power walk numbers them: the rotations' classes
        first, x^i in the class of <gcd(i, m)>, which is the last divisor d of
        m to write it in ascending order, then a new class per x^i y in order
        of i, that of x^(i+square) y too when square > 0."""
        m, square = self._m, self._square
        orders, sizes, below = cyclic_poset(m)
        cyclic_class = [0] * m
        for c in range(1, len(orders)):
            d = m // orders[c]
            cyclic_class[d::d] = [c] * (orders[c] - 1)
        if square is None:
            return cyclic_class, CyclicPoset(orders, sizes, below)
        k, flips = len(orders), square or m  # the classes of the x^i y
        cyclic_class += [*range(k, k + flips)] * (m // flips)
        if square == 0:
            order, size, inside = 2, 1, (0,)
        else:
            order, size, inside = 4, 2, (0, cyclic_class[square])
        return cyclic_class, CyclicPoset(orders + (order,) * flips, sizes + (size,) * flips,
                                         below + (inside,) * flips)

    def powers(self, i: int) -> list[int]:
        m, square = self._m, self._square
        if i < m:
            return _multiples(i, m)
        if square == 0:
            return [0, i]
        return [0, i, square, m + (i + square) % m]


def _elemabelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise InvalidSpec(f"elementary abelian base must be prime, got {p}")
    if k < 1:
        raise InvalidSpec(f"elementary abelian rank needs k >= 1, got {k}")
    name = f"Z_{p}" if k == 1 else f"Z_{p}^{k}"
    check_order(p**k, name)
    # element i is the tuple of its k base-p digits, most significant first
    places = [p**j for j in reversed(range(k))]
    names = list(map(str, range(p)))

    def mul(a, b):  # digit by digit, mod p
        return sum((a // w + b // w) % p * w for w in places)

    def label(i):
        return "(" + ",".join([names[i // w % p] for w in places]) + ")"

    return FiniteGroup(name, p**k, mul, label)


def _compose(a: bytes, b: bytes) -> bytes:
    """Apply a first, then b: one translate through b padded to 256 bytes."""
    return a.translate(b + _POINTS[len(b):])


def _perm_closure(degree, generators, name):
    pad = _POINTS[degree:]
    tables = [bytes(g) + pad for g in generators]
    identity = _POINTS[:degree]
    cap = max_order()
    index = {identity: 0}  # in breadth-first order, generators in their order
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for t in tables:
                h = e.translate(t)
                if h not in index:
                    index[h] = len(index)
                    nxt.append(h)
                    if len(index) > cap:
                        raise TooLarge(f"{name} exceeds the order cap {cap}")
        frontier = nxt
    return _PermGroup(name, list(index), index)


class _PermGroup(FiniteGroup):
    """A permutation group, the one kind that keeps its elements: element i is
    the byte string elements[i], and index maps each back to its index. x's
    powers step by one translate through x's padded table."""

    __slots__ = ("_elements", "_index")

    def __init__(self, name, elements, index):
        self._elements, self._index = elements, index
        super().__init__(name, len(elements), lambda a, b: index[_compose(elements[a], elements[b])],
                         lambda i: _cycle_notation(elements[i]))

    def powers(self, i: int) -> list[int]:
        index = self._index
        e = power = self._elements[i]
        table = e + _POINTS[len(e):]
        powers = [0]
        while y := index[power]:
            powers.append(y)
            power = power.translate(table)
        return powers


def _symmetric(m: int) -> FiniteGroup:
    if not 1 <= m <= MAX_PERM_DEGREE:
        raise InvalidSpec(f"sym degree must be 1..{MAX_PERM_DEGREE}, got {m}")
    name = f"S_{m}"
    check_order(factorial(m), name)
    gens = []
    if m >= 2:
        gens.append(tuple([1, 0] + list(range(2, m))))
    if m >= 3:
        gens.append(tuple(list(range(1, m)) + [0]))
    return _perm_closure(m, gens, name)


def _alternating(m: int) -> FiniteGroup:
    if not 1 <= m <= MAX_PERM_DEGREE:
        raise InvalidSpec(f"alt degree must be 1..{MAX_PERM_DEGREE}, got {m}")
    name = f"A_{m}"
    check_order(max(1, factorial(m) // 2), name)
    gens = []
    if m >= 3:
        gens.append(tuple([1, 2, 0] + list(range(3, m))))
        if m % 2 == 1:
            gens.append(tuple(list(range(1, m)) + [0]))
        elif m >= 4:
            gens.append(tuple([0] + list(range(2, m)) + [1]))
    return _perm_closure(m, gens, name)


def _semidirect(p: int, q: int) -> FiniteGroup:
    """Nonabelian Z_p x| Z_q of order pq, for primes with q | p - 1.

    The generator of Z_q acts as x -> x^r with r the smallest integer > 1
    of multiplicative order q mod p, which fixes the group up to isomorphism.
    """
    if not is_prime(p) or not is_prime(q):
        raise InvalidSpec(f"semidirect needs two primes, got ({p}, {q})")
    if (p - 1) % q != 0:
        raise InvalidSpec(f"semidirect needs q | p-1, got ({p}, {q})")
    name = f"Z_{p}⋊Z_{q}"
    check_order(p * q, name)
    r = next(r for r in range(2, p) if pow(r, q, p) == 1)
    rpow = [pow(r, b, p) for b in range(q)]

    def mul(e1, e2):  # (a, b) at a*q + b
        a1, b1 = divmod(e1, q)
        a2, b2 = divmod(e2, q)
        return (a1 + a2 * rpow[b1]) % p * q + (b1 + b2) % q

    return FiniteGroup(name, p * q, mul, lambda i: "(%d,%d)" % divmod(i, q))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a * |h| + b."""
    name = f"{g.name}×{h.name}"
    check_order(g.order * h.order, name)
    return _ProductGroup(name, g, h)


class _ProductGroup(FiniteGroup):
    """G×H, (a, b) at index a*|H| + b; (a, b)^k = (a^k, b^k), so its powers
    come from the factors' powers by index arithmetic."""

    __slots__ = ("_factors",)

    def __init__(self, name, g, h):
        self._factors = g, h
        n = h.order

        def mul(e1, e2):
            a1, b1 = divmod(e1, n)
            a2, b2 = divmod(e2, n)
            return g.multiply(a1, a2) * n + h.multiply(b1, b2)

        left, right = cache(g.element_repr), cache(h.element_repr)  # each factor label once
        super().__init__(name, g.order * n, mul, lambda i: f"({left(i // n)},{right(i % n)})")

    def powers(self, i: int) -> list[int]:
        g, h = self._factors
        a, b = divmod(i, h.order)
        left, right = g.powers(a), h.powers(b)
        m = lcm(len(left), len(right))
        shifted = [x * h.order for x in left]
        return list(map(add, shifted * (m // len(left)), right * (m // len(right))))


class Kind(NamedTuple):
    """How the spec grammar writes a kind with integer parameters, and its builder."""

    params: tuple[str, ...]  # what a parse error calls each parameter
    sep: str  # between two parameters
    builder: Callable[..., FiniteGroup]


# in the order parse errors list them; product and perm come after these
KINDS = {
    "cyclic": Kind(("parameter",), "", lambda n: _rotations("cyclic", n, f"Z_{n}", n, None)),
    "dihedral": Kind(("parameter",), "", lambda n: _rotations("dihedral", n, f"D_{2 * n}", n, 0)),
    "quaternion": Kind(("parameter",), "",
                       lambda n: _rotations("quaternion", n, f"Q_{4 * n}", 2 * n, n)),
    "elemabelian": Kind(("prime base", "exponent"), "^", _elemabelian),
    "sym": Kind(("parameter",), "", _symmetric),
    "alt": Kind(("parameter",), "", _alternating),
    "semidirect": Kind(("first prime", "second prime"), ":", _semidirect),
}


def _row(spec: GroupSpec, depth: int) -> Kind | None:
    """spec's row of KINDS, None for product and perm; checks kind, arity and
    types, that a perm degree is 1..MAX_PERM_POINTS and each perm generator a
    permutation of range(degree), and that products nest at most
    MAX_PRODUCT_DEPTH deep, `depth` enclosing spec."""
    row = KINDS.get(spec.kind) if type(spec.kind) is str else None
    if row is None and spec.kind not in ("product", "perm"):
        raise InvalidSpec(f"unknown spec kind {spec.kind!r}")
    if spec.kind == "product" and depth >= MAX_PRODUCT_DEPTH:
        raise InvalidSpec(f"product nested more than {MAX_PRODUCT_DEPTH} deep")
    arity = len(row.params) if row else int(spec.kind == "perm")
    if (not all(type(c) is tuple for c in (spec.params, spec.factors, spec.generators))
            or len(spec.params) != arity or len(spec.factors) != 2 * (spec.kind == "product")
            or bool(spec.generators) != (spec.kind == "perm")  # else no text parses back to it
            or not all(type(p) is int for p in spec.params)  # a bool is not a parameter
            or not all(isinstance(f, GroupSpec) for f in spec.factors)
            or not all(type(g) is tuple and all(type(x) is int for x in g) for g in spec.generators)):
        raise InvalidSpec(f"malformed {spec.kind} spec {spec!r}")
    if spec.kind == "perm" and not 1 <= spec.params[0] <= MAX_PERM_POINTS:  # before range()
        raise InvalidSpec(f"permutation degree must be 1..{MAX_PERM_POINTS}, got {spec.params[0]}")
    for g in spec.generators:  # else a short one renders as a longer one
        if sorted(g) != list(range(spec.params[0])):
            raise InvalidSpec(f"{g} is not a permutation of degree {spec.params[0]}")
    return row


def build(spec: GroupSpec) -> FiniteGroup:
    """Materialize a GroupSpec into a FiniteGroup."""
    return _build(spec, 0)


def _build(spec: GroupSpec, depth: int) -> FiniteGroup:
    row = _row(spec, depth)
    if row is not None:
        return row.builder(*spec.params)
    if spec.kind == "product":
        a, b = spec.factors
        return direct_product(_build(a, depth + 1), _build(b, depth + 1))
    return _perm_closure(spec.params[0], spec.generators,
                         f"⟨{';'.join(map(_cycle_notation, spec.generators))}⟩")


def spectrum(g: FiniteGroup) -> tuple[set[int], set[int]]:
    """Element-order set and its divisibility-maximal members."""
    omega = set(g.poset.orders)
    mu = {
        a
        for a in omega
        if not any(b != a and b % a == 0 for b in omega)
    }
    return omega, mu


def count_cyclic_subgroups(g: FiniteGroup, p: int) -> int:
    """Number of distinct cyclic subgroups of prime order p."""
    if not is_prime(p):
        raise InvalidSpec(f"{p} is not prime")
    return g.poset.orders.count(p)
