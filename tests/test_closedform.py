from fractions import Fraction

import pytest

from powertree import closedform
from powertree.cli import main
from powertree.closedform import (
    closed_form,
    divisor_profile,
    kappa_cyclic,
    kappa_cyclic_expansion,
    kappa_cyclic_reduced,
    kappa_dihedral,
    kappa_elementary_abelian,
    kappa_epo,
    kappa_pq,
    kappa_quaternion_pow2,
    kappa_quaternion_reduced,
    kappa_semidirect_pq,
)
from powertree.errors import DiscrepancyDetected, InvalidSpec, NotEPO, TooLarge
from powertree.groups import GroupSpec, build
from powertree.numutil import try_factorize
from powertree.powergraph import power_graph, reduced_power_graph
from powertree.specparse import parse_group_spec
from powertree.treecount import TreeNumber, closed_degrees, quotient_kappa, temperley_kappa


def _build(text):
    return build(parse_group_spec(text))


# --- divisor profile ---------------------------------------------------------
# Z_n's record: classes of orders 1, n, then the middle divisors descending


def _incomparable(poset):
    """The pairs {a, b} of middle orders of which neither divides the other."""
    orders, _, below = poset
    return {frozenset({orders[i], orders[j]})
            for i in range(2, len(orders)) for j in range(i + 1, len(orders)) if j not in below[i]}


def test_divisor_profile_12():
    poset = divisor_profile(12)
    assert poset.orders == (1, 12, 6, 4, 3, 2)
    closed = closed_degrees(poset)
    assert [d - 1 for d in closed] == [11, 11, 9, 7, 8, 9]
    ratios = tuple(Fraction(d, t) for d, t in zip(closed[2:], poset.sizes[2:]))
    assert ratios == (Fraction(5), Fraction(4), Fraction(9, 2), Fraction(10))


def test_divisor_profile_6():
    poset = divisor_profile(6)
    assert poset.orders == (1, 6, 3, 2)
    assert poset.sizes == (1, 2, 2, 1)


def test_divisor_profile_prime():
    poset = divisor_profile(7)
    assert poset.orders == (1, 7)
    assert poset.below == ((), (0,))


def test_divisor_profile_invariants():
    for n in range(1, 150):
        poset = divisor_profile(n)
        assert sum(poset.sizes) == n
        closed = closed_degrees(poset)
        assert set(closed[:2]) == {n}  # the identity and Z_n's generators: all of Z_n
        assert all(closed[i] > poset.sizes[i] for i in range(2, len(closed)))


def test_divisor_graph_30():
    poset = divisor_profile(30)
    assert poset.orders[2:] == (15, 10, 6, 5, 3, 2)
    assert len(_incomparable(poset)) == 9


def test_divisor_graph_12():
    assert _incomparable(divisor_profile(12)) == {
        frozenset({6, 4}),
        frozenset({4, 3}),
        frozenset({3, 2}),
    }


def test_divisor_graph_chains_complete(capsys):
    # the middle divisors of a prime power form a chain: all comparable
    assert _incomparable(divisor_profile(8)) == set()
    assert main(["divisor-graph", "8"]) == 0
    assert "  4 -- 2;" in capsys.readouterr().out.splitlines()


# --- cyclic closed forms -----------------------------------------------------


def test_kappa_cyclic_paper_values():
    assert kappa_cyclic(6).value == 540
    assert kappa_cyclic(6).factorization == {2: 2, 3: 3, 5: 1}
    assert kappa_cyclic(12).factorization == {2: 14, 3: 6, 5: 1, 131: 1}


def test_kappa_cyclic_prime_power_is_cayley():
    for n in (1, 2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49):
        assert kappa_cyclic(n).value == n ** max(n - 2, 0)


def test_kappa_cyclic_matches_matrix_tree_to_60():
    for n in range(1, 61):
        direct = temperley_kappa(power_graph(_build(f"cyclic:{n}"))).value
        assert kappa_cyclic(n).value == direct, n


def test_kappa_cyclic_reduced_matches_matrix_tree_to_60():
    for n in range(2, 61):
        direct = temperley_kappa(reduced_power_graph(_build(f"cyclic:{n}"))).value
        assert kappa_cyclic_reduced(n).value == direct, n


def test_kappa_cyclic_matches_quotient_to_200():
    for n in range(1, 201):
        g = build(GroupSpec("cyclic", (n,)))
        assert kappa_cyclic(n).value == quotient_kappa(g.poset).value, n
        if n >= 2:
            assert kappa_cyclic_reduced(n).value == quotient_kappa(g.poset, reduced=True).value, n


def test_kappa_cyclic_reduced_values():
    assert kappa_cyclic_reduced(6).value == 40
    assert kappa_cyclic_reduced(9).value == 2**18
    assert kappa_cyclic_reduced(12).factorization == {2: 4, 3: 2, 7: 1, 11: 3, 173: 1}


def test_kappa_cyclic_reduced_2p():
    for p in (3, 5, 7, 11):
        expected = (2 * p - 1) ** (p - 2) * (2 * p - 2) ** (p - 1) // 2
        assert kappa_cyclic_reduced(2 * p).value == expected


def test_kappa_cyclic_reduced_trivial():
    with pytest.raises(InvalidSpec, match="reduced tree count needs n >= 2"):
        kappa_cyclic_reduced(1)


def test_expansion_equals_determinant_form(monkeypatch):
    for n in list(range(1, 40)) + [48, 60, 72, 90, 96, 100]:
        assert kappa_cyclic_expansion(n).value == kappa_cyclic(n).value, n
    # every degree one too high leaves the sum fractional; no command runs
    # the expansion, so only the guard itself is checked
    monkeypatch.setattr(closedform, "closed_degrees", lambda poset: [d + 1 for d in closed_degrees(poset)])
    with pytest.raises(DiscrepancyDetected, match="did not divide exactly"):
        kappa_cyclic_expansion(6)


def test_expansion_divisor_cap(monkeypatch):
    with pytest.raises(TooLarge, match=r"238 middle divisors exceed the 2\^20 subset cap"):
        kappa_cyclic_expansion(720720)  # 240 divisors
    # the cap counts the divisors before Z_n's record is built
    monkeypatch.setattr(closedform, "divisor_profile", lambda n: pytest.fail("record built"))
    with pytest.raises(TooLarge, match=r"^6718 middle divisors exceed the 2\^20 subset cap$"):
        kappa_cyclic_expansion(963_761_198_400)


def test_cyclic_closed_form_dense_cap():
    # 382 middle divisors; no CLI input has more than 62 (n <= 10 000)
    for call in (lambda: kappa_cyclic(4_324_320), lambda: kappa_cyclic_reduced(4_324_320),
                 lambda: kappa_dihedral(4_324_320), lambda: kappa_quaternion_reduced(2_162_160)):
        with pytest.raises(TooLarge, match="^cyclic closed form capped at dimension 360, got 382$"):
            call()


# --- two-prime forms ---------------------------------------------------------


def test_kappa_pq_values():
    assert kappa_pq(2, 3).value == 540
    assert kappa_pq(2, 5).factorization == {2: 4, 3: 6, 5: 5}
    assert kappa_pq(3, 5).factorization == {3: 10, 5: 8, 11: 1, 13: 3}
    assert kappa_pq(5, 3).value == kappa_pq(3, 5).value


def test_kappa_pq_matches_cyclic():
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7), (5, 11)]:
        assert kappa_pq(p, q).value == kappa_cyclic(p * q).value
        assert kappa_pq(p, q, reduced=True).value == kappa_cyclic_reduced(p * q).value


def test_kappa_pq_2p_specialization():
    for p in (3, 5, 7, 11, 13):
        assert kappa_pq(2, p).value == (2 * p) ** p * (2 * p - 1) ** (p - 2) // 2


def test_kappa_pq_errors():
    with pytest.raises(InvalidSpec, match="need distinct primes, got p = q = 3"):
        kappa_pq(3, 3)
    with pytest.raises(InvalidSpec, match=r"kappa_pq needs two primes, got \(4, 3\)"):
        kappa_pq(4, 3)


# --- dihedral and dicyclic ---------------------------------------------------


def test_kappa_dihedral_values():
    assert kappa_dihedral(4).value == 2**4
    assert kappa_dihedral(5).value == 5**3
    assert kappa_dihedral(7).value == 7**5


def test_kappa_dihedral_matches_matrix_tree():
    for n in range(1, 13):
        direct = temperley_kappa(power_graph(_build(f"dihedral:{n}"))).value
        assert kappa_dihedral(n).value == direct, n


def test_kappa_quaternion_reduced_values():
    assert kappa_quaternion_reduced(2).value == 27
    assert kappa_quaternion_reduced(3).factorization == {2: 3, 3: 3, 5: 1}
    assert kappa_quaternion_reduced(4).factorization == {3: 4, 7: 5}


def test_kappa_quaternion_reduced_matches_matrix_tree():
    for n in range(1, 13):
        direct = temperley_kappa(reduced_power_graph(_build(f"quaternion:{n}"))).value
        assert kappa_quaternion_reduced(n).value == direct, n


def test_kappa_quaternion_reduced_pow2_closed_form():
    assert kappa_quaternion_reduced(1).value == 3
    for n in (2, 4, 8):
        assert kappa_quaternion_reduced(n).value == 3**n * (2 * n - 1) ** (2 * n - 3)


def test_kappa_quaternion_pow2():
    assert kappa_quaternion_pow2(2).value == 2**11
    assert kappa_quaternion_pow2(1).value == 2**4
    assert kappa_quaternion_pow2(4).value == 2**31
    for n in (1, 2, 4, 8):
        direct = temperley_kappa(power_graph(_build(f"quaternion:{n}"))).value
        assert kappa_quaternion_pow2(n).value == direct == 2 ** (5 * n - 1) * n ** (2 * n - 2)
    with pytest.raises(InvalidSpec, match="need n a power of two, got 3"):
        kappa_quaternion_pow2(3)
    with pytest.raises(InvalidSpec, match="need n a power of two, got 0"):
        kappa_quaternion_pow2(0)


# --- prime-order-element groups ----------------------------------------------


def test_kappa_epo_examples():
    assert kappa_epo(_build("semidirect:7:3")).factorization == {3: 7, 7: 5}
    assert kappa_epo(_build("alt:5")).factorization == {3: 10, 5: 18}
    assert kappa_epo(_build("sym:3")).value == 3
    assert kappa_epo(_build("alt:4")).value == 81


def test_kappa_epo_elementary_abelian():
    for p, k in [(2, 1), (2, 3), (3, 2), (3, 3), (5, 2), (7, 1)]:
        g = _build(f"elemabelian:{p}^{k}")
        expected = p ** ((p**k - 1) // (p - 1) * (p - 2))
        assert kappa_epo(g).value == expected
        assert kappa_elementary_abelian(p, k).value == expected


def test_kappa_epo_rejects_composite_order_elements():
    with pytest.raises(NotEPO):
        kappa_epo(_build("cyclic:4"))


def test_kappa_epo_matches_matrix_tree():
    for text in ["sym:3", "alt:4", "alt:5", "semidirect:7:3", "elemabelian:3^2"]:
        g = _build(text)
        assert kappa_epo(g).value == temperley_kappa(power_graph(g)).value


def test_kappa_semidirect_pq():
    assert kappa_semidirect_pq(7, 3).factorization == {3: 7, 7: 5}
    assert kappa_semidirect_pq(3, 2).value == 3
    assert kappa_semidirect_pq(5, 2).value == 125
    for p, q in [(3, 2), (5, 2), (7, 3), (11, 2), (13, 3)]:
        g = _build(f"semidirect:{p}:{q}")
        assert kappa_semidirect_pq(p, q).value == temperley_kappa(power_graph(g)).value
    with pytest.raises(InvalidSpec, match=r"p = 1 mod q, got \(7, 5\)"):
        kappa_semidirect_pq(7, 5)
    with pytest.raises(InvalidSpec, match=r"p = 1 mod q, got \(3, 5\)"):
        kappa_semidirect_pq(3, 5)


EPO_FAMILIES = [
    *((f"elemabelian:{p}^{k}", kappa_elementary_abelian, (p, k))
      for p, top in ((2, 9), (3, 5), (5, 3), (7, 2), (11, 2), (13, 1), (31, 2), (97, 1)) for k in range(1, top + 1)),
    *((f"semidirect:{p}:{q}", kappa_semidirect_pq, (p, q))
      for p, q in ((3, 2), (5, 2), (7, 2), (7, 3), (11, 5), (13, 3), (29, 7), (31, 5), (43, 7), (101, 5), (211, 7))),
]


@pytest.mark.parametrize("text, family, params", EPO_FAMILIES, ids=[t for t, _, _ in EPO_FAMILIES])
def test_family_formulas_are_the_epo_count(text, family, params):
    # every non-identity element has prime order, so closed_form takes the EPO
    # count; each family's own formula stays a reproduced claim that meets it
    spec = parse_group_spec(text)
    g = build(spec)
    chosen, claim = closed_form(spec, g, False), family(*params)
    assert chosen.value == claim.value == kappa_epo(g).value
    assert chosen.factored() == claim.factored()


def test_nonpositive_sizes_raise_out_of_range():
    calls = [
        lambda: divisor_profile(0),
        lambda: kappa_cyclic(0),
        lambda: kappa_cyclic(-4),
        lambda: kappa_dihedral(0),
        lambda: kappa_cyclic_expansion(0),
        lambda: kappa_elementary_abelian(2, 0),
        lambda: kappa_elementary_abelian(4, -1),  # the rank is checked first
        lambda: try_factorize(0),
    ]
    for call in calls:
        with pytest.raises(InvalidSpec, match="must be >= 1"):
            call()


def test_elementary_abelian_needs_a_prime():
    with pytest.raises(InvalidSpec, match="4 is not prime"):
        kappa_elementary_abelian(4, 2)


def test_counted_factors_and_exact_division():
    count = TreeNumber.from_powers([(6, 2), (1, 5), (7, 0), (3, -1)])
    assert count.value == 12
    assert count.factorization == {2: 2, 3: 1}
    # the message gives sizes in bits and formats no power, however large
    with pytest.raises(DiscrepancyDetected, match="^product of 16610 bits not divisible by 2 bits$"):
        TreeNumber.from_powers([(10**5000 + 1, 1), (2, -1)])


def test_divisibility_corollary():
    for n in range(3, 121):
        assert kappa_cyclic(n).value % n == 0, n


CLOSED_FORM_SWEEP = [
    *(f"cyclic:{n}" for n in range(1, 121)),
    *(f"dihedral:{n}" for n in range(1, 61)),
    *(f"quaternion:{n}" for n in range(1, 33)),
    *(f"elemabelian:2^{k}" for k in range(1, 7)),
    *(f"elemabelian:3^{k}" for k in range(1, 5)),
    "elemabelian:5^2",
    "semidirect:7:3",
    "semidirect:13:3",
    "semidirect:31:5",
    "alt:4",
    "alt:5",
    "sym:3",
    "sym:4",
    "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
]


@pytest.mark.parametrize("text", CLOSED_FORM_SWEEP)
def test_closed_form_choice_matches_the_engine(text):
    spec = parse_group_spec(text)
    g = build(spec)
    n = spec.params[0]
    for reduced in (False, True) if g.order > 1 else (False,):
        result = closed_form(spec, g, reduced)
        if reduced:
            expect_none = spec.kind not in ("cyclic", "quaternion")
        else:
            expect_none = text == "sym:4" or (spec.kind == "quaternion" and n & (n - 1) != 0)
        assert (result is None) == expect_none, (text, reduced)
        if result is not None:
            assert result.value == quotient_kappa(g.poset, reduced).value, (text, reduced)
