import pytest

from powertree.classify import (
    A5_KAPPA,
    classify_kappa_below_125,
    epo_check_and_bound,
    is_star_kappa_one,
    prime_support_bound,
    sylow_lower_bound,
)
from powertree.closedform import kappa_cyclic
from powertree.errors import OutOfRange
from powertree.groups import GroupSpec, build, count_cyclic_subgroups
from powertree.numutil import factorize
from powertree.powergraph import clique_number, power_graph
from powertree.specparse import parse_group_spec
from powertree.treecount import quotient_kappa, temperley_kappa


def _build(text):
    return build(parse_group_spec(text))


def _kappa(text):
    return temperley_kappa(power_graph(_build(text))).value


def test_prime_support_bound_examples():
    assert prime_support_bound(A5_KAPPA) == {2, 3, 5, 7, 11, 13}
    assert prime_support_bound(124) == {2, 3}
    assert prime_support_bound(1) == {2}
    assert prime_support_bound(3) == {2, 3}
    with pytest.raises(OutOfRange):
        prime_support_bound(0)


def test_prime_support_bound_contains_actual_support():
    for text in ["cyclic:12", "alt:5", "semidirect:7:3", "quaternion:3"]:
        g = _build(text)
        from powertree.numutil import factorize

        support = set(factorize(g.order))
        kappa = temperley_kappa(power_graph(g)).value
        assert support <= prime_support_bound(kappa), text


def test_sylow_lower_bound_examples():
    assert sylow_lower_bound(_build("cyclic:12")) == 48
    assert sylow_lower_bound(_build("alt:5")) == 375
    for p in (3, 5, 7):
        g = _build(f"cyclic:{p}")
        assert sylow_lower_bound(g) == p ** (p - 2) == _kappa(f"cyclic:{p}")


def test_epo_check_and_bound_examples():
    assert epo_check_and_bound(_build("alt:4")) == 81 == _kappa("alt:4")
    perm18 = "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)"
    assert epo_check_and_bound(_build(perm18)) == 81 == _kappa(perm18)
    assert epo_check_and_bound(_build("cyclic:4")) == 1


def test_bounds_hold_on_small_catalog():
    specs = [
        "cyclic:12", "cyclic:24", "dihedral:6", "quaternion:3", "sym:4",
        "alt:4", "alt:5", "semidirect:7:3", "elemabelian:2^4",
        "product:(cyclic:6)x(cyclic:2)",
    ]
    for text in specs:
        g = _build(text)
        graph = power_graph(g)
        kappa = temperley_kappa(graph).value
        assert sylow_lower_bound(g) <= kappa, text
        assert epo_check_and_bound(g) <= kappa, text
        omega = clique_number(graph)
        assert omega ** (omega - 2) <= kappa, text


def test_epo_bound_attained_exactly_on_epo_groups():
    epo = ["sym:3", "alt:4", "alt:5", "semidirect:7:3", "elemabelian:3^2"]
    not_epo = ["cyclic:4", "cyclic:6", "quaternion:2", "cyclic:12"]
    for text in epo:
        g = _build(text)
        assert epo_check_and_bound(g) == temperley_kappa(power_graph(g)).value
    for text in not_epo:
        g = _build(text)
        assert epo_check_and_bound(g) < temperley_kappa(power_graph(g)).value


def test_classification_cases():
    assert classify_kappa_below_125(2) is None
    assert classify_kappa_below_125(7) is None
    assert classify_kappa_below_125(100) is None

    one = classify_kappa_below_125(1)
    assert one.symbolic_family == "elementary abelian 2-groups"
    assert one.groups == ()

    three = classify_kappa_below_125(3)
    assert three.groups == ("Z_3", "S_3")

    sixteen = classify_kappa_below_125(16)
    assert sixteen.groups == ("Z_4", "D_8")

    eightyone = classify_kappa_below_125(81)
    assert len(eightyone.groups) == 3
    assert "A_4" in eightyone.groups


def test_classification_out_of_range():
    with pytest.raises(OutOfRange):
        classify_kappa_below_125(125)
    with pytest.raises(OutOfRange):
        classify_kappa_below_125(0)


def test_classification_members_recompute_to_key():
    for target in (3, 16, 81):
        entry = classify_kappa_below_125(target)
        for spec_text in entry.spec_strings:
            assert _kappa(spec_text) == target, spec_text


def test_classification_spectra():
    entry = classify_kappa_below_125(3)
    from powertree.groups import spectrum

    for spec_text, omega in zip(entry.spec_strings, entry.spectra):
        assert spectrum(_build(spec_text))[0] == omega


def test_h_value_collisions():
    # distinct groups sharing a tree count
    assert _kappa("cyclic:3") == _kappa("sym:3") == 3
    assert _kappa("alt:4") == _kappa("elemabelian:3^2") == 81
    assert _kappa("cyclic:4") == _kappa("dihedral:4") == 16
    assert len(classify_kappa_below_125(3).groups) == 2
    assert len(classify_kappa_below_125(16).groups) == 2
    assert len(classify_kappa_below_125(81).groups) == 3


def test_simple_groups_have_many_prime_order_subgroups():
    # nonabelian simple groups carry at least p+1 cyclic subgroups of
    # order p for every prime p dividing the order; instances on A_5, A_6
    from powertree.groups import count_cyclic_subgroups
    from powertree.numutil import factorize

    for text in ["alt:5", "alt:6"]:
        g = _build(text)
        for p in factorize(g.order):
            assert count_cyclic_subgroups(g, p) >= p + 1, (text, p)
    # the A_5 instance at p = 5 is tight
    assert count_cyclic_subgroups(_build("alt:5"), 5) == 6


def test_is_star_kappa_one_examples():
    assert is_star_kappa_one(_build("elemabelian:2^3")) == (True, True, True)
    assert is_star_kappa_one(_build("cyclic:4")) == (False, False, False)
    assert is_star_kappa_one(_build("cyclic:2")) == (True, True, True)
    assert is_star_kappa_one(_build("cyclic:1")) == (True, True, True)


def test_is_star_kappa_one_predicates_agree():
    specs = [
        "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:6", "elemabelian:2^2",
        "elemabelian:2^4", "dihedral:4", "quaternion:2", "sym:3", "alt:4",
    ]
    for text in specs:
        triple = is_star_kappa_one(_build(text))
        assert len(set(triple)) == 1, text


def test_kappa_one_iff_elementary_abelian_two():
    # tree count 1 appears exactly for the elementary abelian 2-family
    for k in range(1, 6):
        assert _kappa(f"elemabelian:2^{k}") == 1
    assert kappa_cyclic(1).value == 1
    for text in ["cyclic:3", "cyclic:4", "sym:3", "quaternion:2"]:
        assert _kappa(text) != 1


def _psl2_spec(p):
    """PSL(2,p) on the projective line: GF(p) as points 0..p-1, infinity as
    point p, generated by x -> x + 1, x -> w^2 x and x -> -1/x, w primitive."""
    w = next(w for w in range(2, p) if len({pow(w, k, p) for k in range(1, p)}) == p - 1)
    inf = p
    shift = tuple((x + 1) % p for x in range(p)) + (inf,)
    scale = tuple(w * w * x % p for x in range(p)) + (inf,)
    invert = (inf, *(-pow(x, -1, p) % p for x in range(1, p)), 0)
    return GroupSpec("perm", (p + 1,), generators=(shift, scale, invert))


def _psl32_spec():
    """PSL(3,2) on the 7 points of the Fano plane, the nonzero vectors of
    GF(2)^3, generated by the transvection E_12 and the cyclic permutation
    matrix (their conjugates give every elementary transvection)."""
    points = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)][1:]
    index = {v: i for i, v in enumerate(points)}
    transvection = tuple(index[(a ^ b, b, c)] for a, b, c in points)
    cycle = tuple(index[(c, a, b)] for a, b, c in points)
    return GroupSpec("perm", (7,), generators=(transvection, cycle))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_psl2_p_bounds_and_the_a5_value(p):
    spec = _psl2_spec(p)
    assert parse_group_spec(spec.render()) == spec
    g = build(spec)
    assert g.order == p * (p * p - 1) // 2
    kappa = quotient_kappa(g.poset).value
    assert (kappa == A5_KAPPA) == (p == 5)
    if p == 5:
        assert kappa == _kappa("alt:5")
    assert sylow_lower_bound(g) <= kappa
    primes = set(factorize(g.order))
    assert primes <= prime_support_bound(kappa)
    for q in primes:
        assert count_cyclic_subgroups(g, q) >= q + 1, q


def test_psl3_2_on_the_fano_plane_counts_as_psl2_7():
    spec = _psl32_spec()
    assert parse_group_spec(spec.render()) == spec
    fano = build(spec)
    assert fano.order == 168
    assert quotient_kappa(fano.poset) == quotient_kappa(build(_psl2_spec(7)).poset)
