"""Lower bounds on tree counts, the kappa < 125 classification, and the
recognition argument that pins down A_5 among finite simple groups by its
tree count alone."""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .closedform import epo_powers, kappa_epo
from .errors import InvalidSpec
from .groups import FiniteGroup, GroupSpec, build, count_cyclic_subgroups
from .numutil import factorize, is_prime, next_prime, p_part, primes_upto
from .powergraph import power_graph
from .treecount import temperley_kappa

A5_KAPPA = 3**10 * 5**18


class ClassificationEntry(NamedTuple):
    """All groups whose power graph has exactly kappa_value spanning trees.

    groups/spec_strings/spectra run in parallel; symbolic_family is set
    instead when the class is an infinite family.
    """

    kappa_value: int
    groups: tuple[str, ...]
    spec_strings: tuple[str, ...]
    spectra: tuple[frozenset[int], ...]
    symbolic_family: str | None = None


# The only tree counts below 125 that occur, with every realizing group.
# (Z_3 x Z_3) x| Z_2 is the generalized dihedral group of order 18, realized
# as a permutation group: two commuting 3-cycles and the involution
# inverting both.
_CLASSIFICATION: dict[int, ClassificationEntry] = {
    1: ClassificationEntry(
        kappa_value=1,
        groups=(),
        spec_strings=(),
        spectra=(),
        symbolic_family="elementary abelian 2-groups",
    ),
    3: ClassificationEntry(
        kappa_value=3,
        groups=("Z_3", "S_3"),
        spec_strings=("cyclic:3", "sym:3"),
        spectra=(frozenset({1, 3}), frozenset({1, 2, 3})),
    ),
    16: ClassificationEntry(
        kappa_value=16,
        groups=("Z_4", "D_8"),
        spec_strings=("cyclic:4", "dihedral:4"),
        spectra=(frozenset({1, 2, 4}), frozenset({1, 2, 4})),
    ),
    81: ClassificationEntry(
        kappa_value=81,
        groups=("Z_3×Z_3", "(Z_3×Z_3)⋊Z_2", "A_4"),
        spec_strings=(
            "elemabelian:3^2",
            "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
            "alt:4",
        ),
        spectra=(
            frozenset({1, 3}),
            frozenset({1, 2, 3}),
            frozenset({1, 2, 3}),
        ),
    ),
}


def prime_support_bound(kappa: int) -> set[int]:
    """Primes that can divide the order of any group with this tree count.

    Finds the smallest prime p with kappa < p^(p-2); Sylow lower bounds then
    confine the group's prime divisors to the primes below p.
    """
    if kappa < 1:
        raise InvalidSpec("tree counts are >= 1 for groups")
    p = 2
    while kappa >= p ** (p - 2):
        p = next_prime(p)
    return set(primes_upto(p - 1))


def sylow_lower_bound(g: FiniteGroup) -> int:
    """prod of m^(m-2) over the maximal p-element orders m, one per prime."""
    bound = 1
    for p in factorize(g.order):
        m = max(o for o in g.poset.orders if p_part(o, p) == o)
        bound *= m ** (m - 2)
    return bound


def epo_check_and_bound(g: FiniteGroup) -> int:
    """prod p^((p-2) c_p) over primes; attained exactly on EPO groups."""
    return prod(p**e for p, e in epo_powers(g) if is_prime(p))


def classify_kappa_below_125(target: int) -> ClassificationEntry | None:
    """Groups with the given tree count, for targets below 125; None if none."""
    if not 1 <= target < 125:
        raise InvalidSpec(f"classification covers 1 <= kappa < 125, got {target}")
    return _CLASSIFICATION.get(target)


def is_star_kappa_one(g: FiniteGroup) -> tuple[bool, bool, bool]:
    """(elementary abelian 2-group, star-shaped power graph, tree count 1).

    The three predicates are computed independently; they agree for every
    group. Groups of order at most 2 satisfy all three trivially.
    """
    elementary_abelian_2 = all(o == 2 for o in g.poset.orders[1:])
    graph = power_graph(g)
    n = graph.vertex_count
    star = graph.edge_count() == n - 1 and max(map(graph.degree, range(n))) == n - 1
    kappa_one = temperley_kappa(graph).value == 1
    return elementary_abelian_2, star, kappa_one


def _entry(check: str, claim: str, computed: str, ok: bool) -> dict:
    return {
        "check": check,
        "claim": claim,
        "computed": computed,
        "verdict": "PASS" if ok else "FAIL",
    }


def verify_a5_recognition() -> list[dict]:
    """Evidence chain showing A_5 is the unique simple group with its tree count.

    Every inequality is evaluated over exact integers. The candidate list
    {A_5, A_6, U_4(2)} for simple groups with prime divisors {2, 3, 5} is
    taken as given; U_4(2) (order 25920) is excluded by its Sylow 3-subgroup
    order alone, A_6 both by that bound and by direct computation.
    """
    report = []

    a5 = build(GroupSpec("alt", (5,)))
    epo_value = kappa_epo(a5).value
    mt_value = temperley_kappa(power_graph(a5)).value
    report.append(
        _entry(
            "kappa_a5",
            "tree count of A_5 is 3^10 * 5^18 by both the prime-order-class "
            "product and the 60-vertex determinant",
            f"product={epo_value}, determinant={mt_value}, target={A5_KAPPA}",
            epo_value == A5_KAPPA == mt_value,
        )
    )

    support = prime_support_bound(A5_KAPPA)
    report.append(
        _entry(
            "prime_support",
            "any group with this tree count has prime divisors inside "
            "{2, 3, 5, 7, 11, 13}",
            f"support bound = {sorted(support)}",
            support == {2, 3, 5, 7, 11, 13},
        )
    )

    c5 = count_cyclic_subgroups(a5, 5)
    big_prime_ok = all(
        p ** ((p - 2) * (p + 1)) > A5_KAPPA for p in (7, 11, 13)
    )
    report.append(
        _entry(
            "large_primes_excluded",
            "a simple group has at least p+1 cyclic subgroups of order p, and "
            "p^((p-2)(p+1)) exceeds the target for p in {7, 11, 13}; sanity "
            "instance: A_5 has at least 6 subgroups of order 5",
            f"7^40={7**40} > target, 11^{9 * 12}, 13^{11 * 14} likewise; "
            f"c_5(A_5)={c5}",
            big_prime_ok and c5 == 6 and c5 >= 5 + 1,
        )
    )

    sylow3_ok = 5**27 > A5_KAPPA
    report.append(
        _entry(
            "sylow3_bound",
            "a Sylow 3-subgroup of order >= 9 would force at least 9 cyclic "
            "subgroups of order 5, but (5^3)^9 already exceeds the target",
            f"5^27={5**27} > {A5_KAPPA}: {sylow3_ok}",
            sylow3_ok,
        )
    )

    a6 = build(GroupSpec("alt", (6,)))
    kappa_a6 = temperley_kappa(power_graph(a6)).value
    sylow3_a6 = p_part(a6.order, 3)
    u42_order = 25920
    sylow3_u42 = p_part(u42_order, 3)
    report.append(
        _entry(
            "candidate_elimination",
            "of the candidates {A_5, A_6, U_4(2)}, both A_6 and U_4(2) have "
            "Sylow 3-subgroups of order >= 9, and the directly computed "
            "tree count of A_6 on 360 vertices differs from the target",
            f"|Syl_3(A_6)|={sylow3_a6}, |Syl_3(U_4(2))|={sylow3_u42}, "
            f"kappa(A_6)={kappa_a6}",
            sylow3_a6 >= 9 and sylow3_u42 >= 9 and kappa_a6 != A5_KAPPA,
        )
    )

    return report
