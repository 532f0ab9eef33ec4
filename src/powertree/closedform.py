"""Closed-form tree counts for cyclic, dihedral, dicyclic and EPO groups.

The cyclic formula reduces the n x n ones-plus-Laplacian determinant to a
determinant indexed by the middle divisors of n (all divisors except n and 1),
with the incomparability graph of those divisors supplying the off-diagonal
pattern. One body serves the full and the identity-deleted graph: deleting
the identity lowers every degree by one and drops the identity's factor.
Everything is evaluated in exact integer or rational arithmetic. Each
formula is a product of powers, written as (base, exponent) pairs with a
negative exponent dividing; `TreeNumber.from_powers` evaluates it and keeps
the pairs, so the count is factored from its bases when the output asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (
    DiscrepancyDetected,
    EqualPrimes,
    InvalidPair,
    NotEPO,
    NotPowerOfTwo,
    NotPrime,
    TooManyDivisors,
    TrivialGroup,
)
from .groups import FiniteGroup, count_cyclic_subgroups
from .numutil import divisors, factorize, is_prime, phi  # bench/child.py wraps factorize
from .powergraph import degree_in_cyclic
from .treecount import TreeNumber, exact_integer_determinant

EXPANSION_LIMIT = 20


@dataclass(frozen=True)
class DivisorProfile:
    """Per-divisor data for the power graph of Z_n.

    divisors descend from n to 1. degrees[i] is the common degree of the
    totients[i] = phi(divisors[i]) elements of that order.
    """

    n: int
    divisors: tuple[int, ...]
    totients: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def middle(self) -> tuple[int, ...]:
        return self.divisors[1:-1]


@dataclass(frozen=True)
class DivisorGraph:
    """Divisibility graph on the divisors of n, plus its middle complement."""

    n: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    middle: tuple[int, ...]
    complement_middle_edges: tuple[tuple[int, int], ...]


def _comparable(a: int, b: int) -> bool:
    return a % b == 0 or b % a == 0


def divisor_profile(n: int) -> DivisorProfile:
    if n < 1:
        raise ValueError("divisor profile needs n >= 1")
    divs = tuple(sorted(divisors(n), reverse=True))
    tots = tuple(phi(d) for d in divs)
    if sum(tots) != n:
        raise DiscrepancyDetected(f"totients of divisors of {n} do not sum to {n}")
    degs = tuple(degree_in_cyclic(n, n // d % n) for d in divs)
    return DivisorProfile(n=n, divisors=divs, totients=tots, degrees=degs)


def divisor_graph(n: int) -> DivisorGraph:
    divs = tuple(sorted(divisors(n), reverse=True))
    edges = tuple(
        (divs[i], divs[j])
        for i in range(len(divs))
        for j in range(i + 1, len(divs))
        if _comparable(divs[i], divs[j])
    )
    middle = divs[1:-1] if len(divs) > 2 else ()
    comp = tuple(
        (middle[i], middle[j])
        for i in range(len(middle))
        for j in range(i + 1, len(middle))
        if not _comparable(middle[i], middle[j])
    )
    return DivisorGraph(n=n, vertices=divs, edges=edges, middle=middle,
                        complement_middle_edges=comp)


def _middle_determinant(prof: DivisorProfile, diagonal: tuple[int, ...]) -> int:
    """det of (diag entries + totient-scaled incomparability rows).

    Row i of the rational middle matrix is scaled by totients[i], turning
    ratio diagonals into plain integers and adjacency ones into totients.
    """
    divs = prof.divisors
    mids = range(1, len(divs) - 1)
    mat = [
        [
            diagonal[i] if i == j else (prof.totients[i] if not _comparable(divs[i], divs[j]) else 0)
            for j in mids
        ]
        for i in mids
    ]
    return exact_integer_determinant(mat)


def kappa_cyclic(n: int, reduced: bool = False) -> TreeNumber:
    """Tree count of the power graph of Z_n, by the middle-divisor determinant.

    The diagonal is d + 1 per divisor, d its degree, and the square is n.
    With `reduced` the identity is deleted first: the diagonal is d, the
    identity (divisor 1, the last) leaves the bases and the square is n - 1.
    """
    if reduced and n < 2:
        raise TrivialGroup("reduced tree count needs n >= 2")
    drop = 1 if reduced else 0
    prof = divisor_profile(n)
    k = len(prof.divisors)
    diagonal = tuple(d + 1 - drop for d in prof.degrees)
    bases = list(zip(diagonal, prof.totients))[: k - drop]
    middle = [(d, -1) for d in diagonal[1 : k - 1]]
    det = _middle_determinant(prof, diagonal)
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
    middle = len(divisors(n)) - 2
    if middle > EXPANSION_LIMIT:
        raise TooManyDivisors(
            f"{middle} middle divisors exceed the 2^{EXPANSION_LIMIT} subset cap"
        )
    prof = divisor_profile(n)
    mids = prof.middle
    ratios = [
        Fraction(d + 1, t) for d, t in zip(prof.degrees[1:-1], prof.totients[1:-1])
    ]
    total = Fraction(0)
    # n = 1 has no middle divisors, and then only the empty subset
    for mask in range(1 << len(mids)):
        inside = [i for i in range(len(mids)) if mask >> i & 1]
        sub = [
            [0 if a == b else int(not _comparable(mids[a], mids[b])) for b in inside]
            for a in inside
        ]
        det_a = exact_integer_determinant(sub)
        if det_a == 0:
            continue
        outside = prod(
            (r for i, r in enumerate(ratios) if not mask >> i & 1), start=Fraction(1)
        )
        total += det_a * outside
    outer = prod((d + 1) ** t for d, t in zip(prof.degrees, prof.totients))
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
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("rank must be >= 1")
    return TreeNumber.from_powers(f"Z_{p}^{k}", [(p, (p**k - 1) // (p - 1) * (p - 2))])


def kappa_epo(g: FiniteGroup) -> TreeNumber:
    """Tree count for a group whose non-identity elements all have prime order."""
    for i in range(1, g.order):
        if not is_prime(g.element_order[i]):
            raise NotEPO(
                f"{g.name} has an element of composite order {g.element_order[i]}"
            )
    return TreeNumber.from_powers(g.name, [
        (p, (p - 2) * count_cyclic_subgroups(g, p)) for p in set(g.element_order[1:])
    ])


def kappa_semidirect_pq(p: int, q: int) -> TreeNumber:
    """Tree count p^(p-2) * q^(p(q-2)) for the nonabelian group of order pq."""
    if not (is_prime(p) and is_prime(q) and q < p and (p - 1) % q == 0):
        raise InvalidPair(
            f"need primes with q < p and p = 1 mod q, got ({p}, {q})"
        )
    return TreeNumber.from_powers(f"Z_{p}⋊Z_{q}", [(p, p - 2), (q, p * (q - 2))])
