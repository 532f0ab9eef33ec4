"""Property checks on random permutation groups of degree <= 5.

Every route must give the same count, the cyclic-subgroup partition must
match per-element closures, each element's powers must match repeated
multiplication, in products of two such groups too, the power graph must follow the pairwise
containment rule, and every command line must end in an exit code
rather than an exception escaping `main`.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_groups import _check_cyclic_partition, assert_same_closure, check_powers
from test_powergraph import _check_matches_pairwise_rule, _check_renders_like_per_edge, _pairwise_rows

from powertree.cli import main
from powertree.groups import GroupSpec, build
from powertree.powergraph import power_graph, reduced_power_graph
from powertree.treecount import quotient_kappa, temperley_kappa


@st.composite
def perm_specs(draw):
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    return GroupSpec("perm", (degree,), generators=tuple(map(tuple, gens)))


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs())
def test_quotient_matches_determinant_on_random_perm_groups(spec):
    g = build(spec)
    assert quotient_kappa(g.poset) == temperley_kappa(power_graph(g))
    if g.order >= 2:
        assert quotient_kappa(g.poset, reduced=True) == temperley_kappa(reduced_power_graph(g))


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs())
def test_power_graph_rows_match_pairwise_rule_on_random_perm_groups(spec):
    g = build(spec)
    _check_matches_pairwise_rule(power_graph(g), _pairwise_rows(g))
    if g.order >= 2:
        _check_matches_pairwise_rule(reduced_power_graph(g), _pairwise_rows(g, reduced=True))


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs())
def test_emitters_match_per_edge_reference_on_random_perm_groups(spec):
    g = build(spec)
    _check_renders_like_per_edge(power_graph(g))
    if g.order >= 2:
        _check_renders_like_per_edge(reduced_power_graph(g))


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs())
def test_cyclic_partition_matches_closures_on_random_perm_groups(spec):
    _check_cyclic_partition(build(spec))


@settings(max_examples=30, deadline=None, database=None)
@given(perm_specs(), st.booleans())
def test_cli_kappa_all_methods_returns_exit_code(spec, reduced):
    argv = ["kappa", spec.render(), "--method", "all", "--format", "json"]
    if reduced:
        argv.append("--reduced")
    # the trivial group has no reduced graph (usage error); otherwise all
    # routes agree
    assert main(argv) == (2 if reduced and build(spec).order < 2 else 0)


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs())
def test_closure_matches_tuple_reference_on_random_perm_groups(spec):
    assert_same_closure(spec)


@settings(max_examples=50, deadline=None, database=None)
@given(perm_specs(), perm_specs())
def test_powers_match_the_multiply_walk_on_random_perm_pairs(a, b):
    g, h = build(a), build(b)
    assume(g.order * h.order <= 3000)
    check_powers(g)
    check_powers(h)
    check_powers(build(GroupSpec("product", factors=(a, b))))
