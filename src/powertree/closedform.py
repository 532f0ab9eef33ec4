"""Closed-form tree counts for cyclic, dihedral, dicyclic and EPO groups.

The cyclic formula reduces the n x n ones-plus-Laplacian determinant to a
determinant indexed by the middle divisors of n (all divisors except n and 1),
with the incomparability graph of those divisors supplying the off-diagonal
pattern. That divisor lattice is Z_n's cyclic-subgroup poset, so its one
description is Z_n's record, the CyclicPoset that `divisor_profile` returns:
classes of orders 1, n, then the middle divisors descending, each with its
totient and the classes inside it. The determinant, the subset expansion and
`divisor-graph` read it and its `incomparability` matrix; treecount's
`closed_degrees` gives each class's degree plus one, as for the quotient
count. One body serves the full and the identity-deleted graph: deleting
the identity lowers every degree by one and drops the identity's factor.
Everything is evaluated in exact integer or rational arithmetic. Each
formula is a product of powers, written as (base, exponent) pairs with a
negative exponent dividing; `TreeNumber.from_powers` evaluates it and keeps
the pairs, so the count is factored from its bases when the output asks.
`closed_form` is the one choice of a catalog group's formula, or of none.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .errors import (
    DiscrepancyDetected,
    EqualPrimes,
    InvalidPair,
    NotEPO,
    NotPowerOfTwo,
    NotPrime,
    OutOfRange,
    TooManyDivisors,
    TrivialGroup,
)
from .groups import CyclicPoset, FiniteGroup, GroupSpec, cyclic_poset
from .numutil import divisors, factorize, is_prime  # bench/child.py wraps factorize
from .treecount import TreeNumber, closed_degrees, exact_integer_determinant

EXPANSION_LIMIT = 20


# The divisor lattice of n is Z_n's cyclic-subgroup poset, so Z_n's record is
# the profile; the bench times the closed forms through this name.
divisor_profile = cyclic_poset


def incomparability(poset: CyclicPoset) -> list[list[int]]:
    """The incomparability graph of n's middle divisors as a 0/1 matrix over
    the middle classes 2.. of Z_n's record: two are joined when neither lies
    inside the other."""
    below = poset.below
    mids = range(2, len(below))
    adjacency = [[int(i != j) for j in mids] for i in mids]
    for i in mids:
        for j in below[i][1:]:  # the middle classes inside class i
            adjacency[i - 2][j - 2] = adjacency[j - 2][i - 2] = 0
    return adjacency


def kappa_cyclic(n: int, reduced: bool = False) -> TreeNumber:
    """Tree count of the power graph of Z_n, by the middle-divisor determinant.

    The diagonal is d + 1 per divisor, d its degree, and the square is n.
    With `reduced` the identity is deleted first: the diagonal is d, the
    identity (divisor 1, class 0) leaves the bases and the square is n - 1.
    Row i of the rational middle matrix is scaled by its totient, turning
    ratio diagonals into plain integers and adjacency ones into totients.
    """
    if reduced and n < 2:
        raise TrivialGroup("reduced tree count needs n >= 2")
    drop = 1 if reduced else 0
    poset = divisor_profile(n)
    diagonal, sizes = closed_degrees(poset, drop), poset.sizes
    det = exact_integer_determinant([
        [diagonal[i] if i == j else sizes[i] * joined for j, joined in enumerate(row, 2)]
        for i, row in enumerate(incomparability(poset), 2)
    ])
    bases = list(zip(diagonal, sizes))[drop:]
    middle = [(d, -1) for d in diagonal[2:]]
    name = f"Z_{n} reduced" if reduced else f"Z_{n}"
    return TreeNumber.from_powers(name, [*bases, (det, 1), *middle, (n - drop, -2)])


def kappa_cyclic_reduced(n: int) -> TreeNumber:
    """Tree count of the power graph of Z_n with the identity deleted."""
    return kappa_cyclic(n, reduced=True)


def kappa_cyclic_expansion(n: int) -> TreeNumber:
    """Tree count of P(Z_n) by explicit subset summation; equals kappa_cyclic.

    Each middle row of the determinant is divided by its totient, leaving
    the ratio r = (d + 1)/phi on the diagonal and the incomparability
    adjacency A off it. Expanding over the induced subgraphs S of A gives
    det = sum_S det A[S] * prod_{i not in S} r_i, up to those totients.
    """
    middle = max(len(divisors(n)) - 2, 0)  # n = 1 has no middle divisors
    if middle > EXPANSION_LIMIT:
        raise TooManyDivisors(
            f"{middle} middle divisors exceed the 2^{EXPANSION_LIMIT} subset cap"
        )
    from fractions import Fraction  # imported here: it pulls in decimal

    poset = divisor_profile(n)
    closed = closed_degrees(poset)
    ratios = [Fraction(d, t) for d, t in zip(closed[2:], poset.sizes[2:])]
    adjacency = incomparability(poset)
    total = Fraction(0)
    for mask in range(1 << middle):
        inside = [i for i in range(middle) if mask >> i & 1]
        sub = [[adjacency[a][b] for b in inside] for a in inside]
        det_a = exact_integer_determinant(sub)
        if det_a == 0:
            continue
        outside = prod(
            (r for i, r in enumerate(ratios) if not mask >> i & 1), start=Fraction(1)
        )
        total += det_a * outside
    outer = prod(d**t for d, t in zip(closed, poset.sizes))
    kappa = outer * total / (prod(ratios, start=Fraction(1)) * n * n)
    if kappa.denominator != 1:
        raise DiscrepancyDetected("subset expansion did not divide exactly")
    return TreeNumber(kappa.numerator)


def kappa_pq(p: int, q: int, reduced: bool = False) -> TreeNumber:
    """Tree count for Z_pq, distinct primes p, q, in fully factored form."""
    if p == q:
        raise EqualPrimes(f"need distinct primes, got p = q = {p}")
    if not is_prime(p) or not is_prime(q):
        raise NotPrime(f"kappa_pq needs two primes, got ({p}, {q})")
    n = p * q
    if reduced:
        bases = [
            (n - 1, (p - 1) * (q - 1) - 1),
            (n - p, q - 2),
            (n - q, p - 2),
            (n - p - q + 1, 1),
        ]
    else:
        bases = [
            (n, (p - 1) * (q - 1)),
            (n - p + 1, q - 2),
            (n - q + 1, p - 2),
            (n - p - q + 2, 1),
        ]
    return TreeNumber.from_powers(f"Z_{n} reduced" if reduced else f"Z_{n}", bases)


def kappa_dihedral(n: int) -> TreeNumber:
    """Tree count of P(D_2n); the n pendant reflection edges contribute 1 each."""
    return kappa_cyclic(n)


def kappa_quaternion_reduced(n: int) -> TreeNumber:
    """Tree count of the identity-deleted power graph of the dicyclic Q_4n.

    The unique involution is a cut vertex joining n triangles to the reduced
    graph of the rotation subgroup Z_2n, so the count is 3^n times that one.
    """
    triangles = TreeNumber.from_powers(f"Q_{4 * n} reduced", [(3, n)])
    return triangles * kappa_cyclic(2 * n, reduced=True)


def kappa_quaternion_pow2(n: int) -> TreeNumber:
    """Tree count of P(Q_4n) for n a power of two: 2^(5n-1) * n^(2n-2)."""
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"need n a power of two, got {n}")
    return TreeNumber.from_powers(f"Q_{4 * n}", [(2, 5 * n - 1), (n, 2 * n - 2)])


def kappa_elementary_abelian(p: int, k: int) -> TreeNumber:
    """Tree count for the elementary abelian group of order p^k.

    The (p^k - 1)/(p - 1) cyclic subgroups of order p meet only in the
    identity, so the count is p raised to (p-2) per subgroup.
    """
    if k < 1:
        raise OutOfRange(f"rank must be >= 1, got {k}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return TreeNumber.from_powers(f"Z_{p}^{k}", [(p, (p**k - 1) // (p - 1) * (p - 2))])


def epo_powers(g: FiniteGroup) -> list[tuple[int, int]]:
    """(m, (m - 2) c_m) for each order m > 1 of a cyclic subgroup, c_m of them,
    in the order of g.poset; on an EPO group every m is prime."""
    counts = Counter(g.poset.orders[1:])
    return [(m, (m - 2) * c) for m, c in counts.items()]


def kappa_epo(g: FiniteGroup) -> TreeNumber:
    """Tree count for a group whose non-identity elements all have prime order."""
    powers = epo_powers(g)
    for m, _ in powers:
        if not is_prime(m):
            raise NotEPO(f"{g.name} has an element of composite order {m}")
    return TreeNumber.from_powers(g.name, powers)


def kappa_semidirect_pq(p: int, q: int) -> TreeNumber:
    """Tree count p^(p-2) * q^(p(q-2)) for the nonabelian group of order pq."""
    if not (is_prime(p) and is_prime(q) and q < p and (p - 1) % q == 0):
        raise InvalidPair(
            f"need primes with q < p and p = 1 mod q, got ({p}, {q})"
        )
    return TreeNumber.from_powers(f"Z_{p}⋊Z_{q}", [(p, p - 2), (q, p * (q - 2))])


def closed_form(spec: GroupSpec, g: FiniteGroup, reduced: bool) -> TreeNumber | None:
    """Formula-based count when one applies to this family, else None."""
    k, p = spec.kind, spec.params
    if k == "cyclic":
        return kappa_cyclic(p[0], reduced)
    if k == "dihedral":
        return None if reduced else kappa_dihedral(p[0])
    if k == "quaternion":
        n = p[0]
        if reduced:
            return kappa_quaternion_reduced(n)
        if n & (n - 1) == 0:
            return kappa_quaternion_pow2(n)
        return None
    if reduced:
        return None
    try:
        return kappa_epo(g)
    except NotEPO:
        return None
