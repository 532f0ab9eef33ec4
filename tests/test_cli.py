import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from powertree import cli, closedform, errors, groups, numutil, powergraph, treecount
from powertree.cli import main
from powertree.errors import DiscrepancyDetected, ParseError
from powertree.groups import KINDS, GroupSpec, build
from powertree.numutil import format_decimal, is_prime, parse_factored
from powertree.specparse import MAX_PRODUCT_DEPTH, parse_group_spec
from powertree.treecount import quotient_kappa
from test_numutil import _FORKS, _counting_fork, _no_child_left
from test_powergraph import LABEL_SPECS, ORACLE_SPECS
from treeoracles import RESIDUE_PRIMES, residue_kappa

ROUND_TRIP_SPECS = [
    "cyclic:12",
    "dihedral:3",
    "quaternion:2",
    "elemabelian:2^3",
    "sym:4",
    "alt:5",
    "semidirect:7:3",
    "product:(cyclic:3)x(cyclic:2)",
    "product:(cyclic:2)x(product:(cyclic:2)x(cyclic:2))",
    "product:(product:(cyclic:2)x(cyclic:3))x(dihedral:4)",
    "perm:5:(1 2 3 4 5);(1 2 3)",
    "perm:6:(1 2 3);(4 5 6);(2 3)(5 6)",
    "perm:4:(1 2)(3 4)",
]


@pytest.mark.parametrize("text", list(dict.fromkeys(ROUND_TRIP_SPECS + LABEL_SPECS + ORACLE_SPECS)))
def test_parse_render_round_trip(text):
    spec = parse_group_spec(text)
    assert parse_group_spec(spec.render()) == spec


def test_round_trip_specs_cover_every_kind():
    kinds = {parse_group_spec(text).kind for text in ROUND_TRIP_SPECS}
    assert kinds == {*KINDS, "product", "perm"}


def test_parse_examples():
    assert parse_group_spec("cyclic:12") == GroupSpec("cyclic", (12,))
    spec = parse_group_spec("product:(cyclic:3)x(cyclic:2)")
    assert spec.kind == "product"
    assert spec.factors == (GroupSpec("cyclic", (3,)), GroupSpec("cyclic", (2,)))
    a5 = parse_group_spec("perm:5:(1 2 3 4 5);(1 2 3)")
    assert a5.params == (5,)
    assert a5.generators[0] == (1, 2, 3, 4, 0)
    assert a5.generators[1] == (1, 2, 0, 3, 4)


def test_parse_whitespace_insensitive_cycles():
    a = parse_group_spec("perm:5:( 1 2  3 4 5 ) ; (1 2 3)")
    b = parse_group_spec("perm:5:(1 2 3 4 5);(1 2 3)")
    assert a == b


def test_parse_errors_carry_position(capsys):
    for text, err in (
        ("elemabelian:8", "input ended at position 13 (expected '^')"),
        ("elemabelian:8^", "missing exponent at position 14 (expected an integer)"),
        ("semidirect:7", "input ended at position 12 (expected ':')"),
        ("semidirect:7:", "missing second prime at position 13 (expected an integer)"),
        ("cyclic:", "missing parameter at position 7 (expected an integer)"),
        ("foo:3", "unknown group kind 'foo' at position 0 (expected one of cyclic, "
         "dihedral, quaternion, elemabelian, sym, alt, semidirect, product, perm)"),
    ):
        assert main(["kappa", text]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n"), text

    with pytest.raises(ParseError) as info:
        parse_group_spec("foo:3")
    assert info.value.position == 0

    with pytest.raises(ParseError) as info:
        parse_group_spec("cyclic")
    assert "':'" in str(info.value)

    with pytest.raises(ParseError):
        parse_group_spec("cyclic:")

    with pytest.raises(ParseError):
        parse_group_spec("product:(cyclic:2")

    with pytest.raises(ParseError) as info:
        parse_group_spec("cyclic:6 junk")
    assert "trailing" in str(info.value)

    with pytest.raises(ParseError):
        parse_group_spec("perm:3:(1 4)")

    with pytest.raises(ParseError):
        parse_group_spec("perm:3:(1 1 2)")

    with pytest.raises(ParseError):
        parse_group_spec("perm:3:")

    with pytest.raises(ParseError) as info:
        parse_group_spec("product:(cyclic:2)y(cyclic:2)")
    assert "'x'" in str(info.value)

    with pytest.raises(ParseError):
        parse_group_spec("elemabelian:8")  # missing ^K


def test_over_long_integer_is_a_parse_error(capsys):
    limit = sys.get_int_max_str_digits()
    for text, what, at in (("cyclic:" + "9" * 5000, "parameter", 7),
                           ("perm:3:(1 " + "9" * 5000 + ")", "cycle entry", 10)):
        assert main(["kappa", text]) == 2
        err = f"error: {what} has 5000 digits at position {at} (expected at most {limit} digits)\n"
        assert capsys.readouterr() == ("", err)


def _nested_product(depth):
    text = "cyclic:1"
    for _ in range(depth):
        text = f"product:({text})x(cyclic:1)"
    return text


def test_deep_product_nesting_is_a_parse_error(capsys):
    """Past MAX_PRODUCT_DEPTH a spec is refused before parse, build or
    render could recurse near the interpreter's limit."""
    deep = _nested_product(1000)
    at = len("product:(") * MAX_PRODUCT_DEPTH + len("product:")  # where one more "(" opens
    for command in ("kappa", "graph"):
        assert main([command, deep]) == 2
        err = f"error: product nested more than {MAX_PRODUCT_DEPTH} deep at position {at}\n"
        assert capsys.readouterr() == ("", err)
    with pytest.raises(ParseError):
        parse_group_spec(_nested_product(MAX_PRODUCT_DEPTH + 1))
    limit = _nested_product(MAX_PRODUCT_DEPTH)
    assert parse_group_spec(limit).render() == limit
    assert main(["kappa", limit]) == 0
    assert capsys.readouterr().out == "1\n"


def test_perm_group_builds_a5():
    from powertree.groups import build

    g = build(parse_group_spec("perm:5:(1 2 3 4 5);(1 2 3)"))
    assert g.order == 60


def test_cmd_kappa_plain(capsys):
    assert main(["kappa", "cyclic:6"]) == 0
    assert capsys.readouterr().out == "540\n"


def test_cmd_kappa_method_all(capsys):
    assert main(["kappa", "cyclic:6", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("540") == 4
    assert "closed-form" in out
    assert "quotient: 540" in out


def test_cmd_kappa_factored(capsys):
    assert main(["kappa", "quaternion:2", "--format", "factored"]) == 0
    assert capsys.readouterr().out == "2^11\n"


def test_cmd_kappa_trivial(capsys):
    assert main(["kappa", "cyclic:1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_cmd_kappa_json(capsys):
    for argv, method in (([], "quotient"), (["--method", "matrix-tree"], "matrix-tree")):
        assert main(["kappa", "cyclic:12", "--format", "json", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "group": "Z_12",
            "order": 12,
            "method": method,
            "kappa": "7823278080",
            "factorization": "2^14*3^6*5*131",
            "reduced": False,
        }


def test_cmd_kappa_reduced(capsys):
    assert main(["kappa", "cyclic:6", "--reduced"]) == 0
    assert capsys.readouterr().out == "40\n"


def test_cmd_kappa_reduced_disconnected_all_methods(capsys):
    assert main(["kappa", "elemabelian:2^2", "--reduced", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert set(out.strip().splitlines()) == {
        "quotient: 0", "matrix-tree: 0", "decomposition: 0"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["perm:6:(1 2 3);(4 5 6)"],
        ["perm:4:(1 2);(3 4)", "--reduced"],  # disconnected, every route counts 0
        ["product:(cyclic:3)x(perm:3:(1 2))"],
        ["semidirect:7:3"],
    ],
)
def test_cmd_kappa_method_all_one_name_and_order(argv, capsys):
    assert main(["kappa", *argv, "--method", "all", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    g = build(parse_group_spec(argv[0]))
    assert {(r["group"], r["order"]) for r in records} == {(g.name, g.order)}


def test_cmd_kappa_closed_form_fallback_notice(capsys):
    assert main(["kappa", "dihedral:4", "--reduced", "--method", "closed-form"]) == 0
    captured = capsys.readouterr()
    assert "no closed form" in captured.err
    assert captured.out.strip() == "0"  # reduced D_8 is disconnected


def test_cmd_kappa_closed_form_factors_middle_determinant(capsys):
    # the middle determinant of reduced Z_420 has a 51-bit and a 92-bit prime
    argv = ["kappa", "cyclic:420", "--reduced", "--method", "closed-form", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "closed-form"
    expected = quotient_kappa(build(GroupSpec("cyclic", (420,))).poset, reduced=True)
    assert int(payload["kappa"]) == expected.value
    factored = payload["factorization"]
    assert all(is_prime(int(part.split("^")[0])) for part in factored.split("*"))
    assert parse_factored(factored) == expected.value


def test_cmd_kappa_plain_output_never_factors(monkeypatch, capsys):
    # the middle determinants of Z_5040 and of Z_9240 reduced resist the
    # curve budget; plain output prints the decimal without trying
    def refuse(n):
        raise AssertionError("plain output factored a tree count")

    monkeypatch.setattr(treecount, "try_factorize", refuse)
    for argv in (["cyclic:5040"], ["cyclic:9240", "--reduced"]):
        start = time.perf_counter()
        assert main(["kappa", *argv, "--method", "closed-form"]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out.strip().isdigit()


def test_cmd_kappa_closed_form_checks_cap_first(capsys):
    # Z_p with p = 10^9 + 7: the closed form would raise n+1 to the power p-1
    start = time.perf_counter()
    argv = ["kappa", "cyclic:1000000007", "--method", "closed-form"]
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    assert "cap" in capsys.readouterr().err


def test_cmd_kappa_at_the_order_cap(capsys):
    for flags, formula in (
        ([], closedform.kappa_cyclic),
        (["--reduced"], closedform.kappa_cyclic_reduced),
    ):
        start = time.perf_counter()
        assert main(["kappa", "cyclic:10000", "--format", "json", *flags]) == 0
        assert time.perf_counter() - start < 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == format_decimal(formula(10000).value)
    # the closed-form route takes the cap from the builder
    start = time.perf_counter()
    argv = ["kappa", "product:(cyclic:10000)x(cyclic:2)", "--method", "closed-form"]
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    assert "cap" in capsys.readouterr().err


def test_cmd_kappa_default_route_near_the_order_cap(capsys):
    for text, formula in (
        ("dihedral:5000", lambda: closedform.kappa_dihedral(5000)),
        ("elemabelian:3^8", lambda: closedform.kappa_elementary_abelian(3, 8)),
        ("quaternion:2048", lambda: closedform.kappa_quaternion_pow2(2048)),
    ):
        start = time.perf_counter()
        assert main(["kappa", text, "--format", "json"]) == 0, text
        assert time.perf_counter() - start < 5, text
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "quotient"
        assert payload["kappa"] == format_decimal(formula().value), text
    for text in ("sym:7", "product:(sym:5)x(cyclic:60)"):
        start = time.perf_counter()
        assert main(["kappa", text]) == 0, text
        assert time.perf_counter() - start < 5, text
        out = capsys.readouterr().out
        assert out.strip().isdigit()
        if text == "sym:7":  # the product's residues take about 7 s
            g = build(parse_group_spec(text))
            assert [int(out) % p for p in RESIDUE_PRIMES] == [residue_kappa(g, p) for p in RESIDUE_PRIMES]


@pytest.mark.parametrize("reduced", [False, True])
def test_cmd_kappa_default_route_above_the_dense_cap_is_checked(reduced, capsys):
    # Z_9 x Z_1000 is Z_9000, as gcd(9, 1000) = 1: the product's quotient count
    # meets the cyclic closed form on 9 000 vertices
    assert main(["kappa", "product:(cyclic:9)x(cyclic:1000)"] + ["--reduced"] * reduced) == 0
    assert capsys.readouterr().out == format_decimal(closedform.kappa_cyclic(9000, reduced).value) + "\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_cmd_graph_writes_cyclic_2000_in_bounded_memory(tmp_path):
    # 1 777 660 edges, about 25 MB of JSON; the text held whole peaked near 83 MB.
    # The child reads its peak RSS as VmHWM: ru_maxrss of a child started by
    # vfork and exec also holds the peak of the test process that started it.
    code = (
        "import re, sys\n"
        "from powertree.cli import main\n"
        "code = main(['graph', 'cyclic:2000', '--format', 'json'])\n"
        "peak = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]\n"
        "print(code, peak, file=sys.stderr)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = tmp_path / "cyclic2000.json"
    with open(path, "w", encoding="utf-8") as out:
        err = subprocess.run([sys.executable, "-c", code], stdout=out, stderr=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True).stderr
    code, peak_kib = map(int, err.split())
    assert code == 0
    assert peak_kib < 40 * 1024
    with open(path, "rb") as fh:
        head = b'{"vertices": 2000, "edges": [[0, 1], [0, 2]'
        assert fh.read(len(head)) == head
        fh.seek(-2, os.SEEK_END)
        assert fh.read() == b"}\n"


def test_cmd_kappa_beyond_int_str_digit_limit(capsys):
    # kappa(Z_1500) has more decimal digits than str() renders by default
    assert main(["kappa", "cyclic:1500", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = quotient_kappa(build(GroupSpec("cyclic", (1500,))).poset).value
    assert len(payload["kappa"]) > sys.get_int_max_str_digits() > 0
    assert payload["kappa"] == format_decimal(expected)


def _parse_chunked(text):
    """Inverse of format_decimal that never hands int() more than 1000 digits."""
    digits = text.lstrip("-")
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_decimal_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, 10 ** (3 * limit) - 1, -(3**20000), 2**40000 + 12345):
        text = format_decimal(value)
        assert text.lstrip("-")[0] != "0"
        assert _parse_chunked(text) == value
    for value in (0, 7, -12, 10**100 + 1):
        assert format_decimal(value) == str(value)


def test_cmd_kappa_deterministic_output(capsys):
    assert main(["kappa", "cyclic:30", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["kappa", "cyclic:30", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_cmd_kappa_discrepancy_exit_code(monkeypatch, capsys):
    from powertree import closedform
    from powertree.treecount import TreeNumber

    monkeypatch.setattr(closedform, "kappa_cyclic", lambda n, reduced=False: TreeNumber(1))
    assert main(["kappa", "cyclic:6", "--method", "all"]) == 1
    assert "discrepancy" in capsys.readouterr().err


def test_cmd_kappa_discrepancy_error_exit(monkeypatch, capsys):
    def fail(group, reduced=False):
        raise DiscrepancyDetected("quotient count not divisible by the class sizes")

    monkeypatch.setattr(cli, "quotient_kappa", fail)
    assert main(["kappa", "cyclic:6"]) == 1
    assert capsys.readouterr().err.startswith("discrepancy: quotient count")


def test_error_types_carry_exit_codes():
    types = [errors.PowerTreeError]
    for t in types:
        types.extend(t.__subclasses__())
    assert len(types) == 14
    resource = {errors.UnsupportedOrder, errors.TooLarge, errors.TooManyDivisors}
    for t in types:
        expected = 3 if t in resource else 1 if t is DiscrepancyDetected else 2
        assert t.exit_code == expected, t.__name__
        assert t.label == ("discrepancy" if t is DiscrepancyDetected else "error")


def test_cmd_kappa_parse_error_exit(capsys):
    assert main(["kappa", "nosuch:3"]) == 2
    assert main(["kappa", "cyclic:1", "--reduced"]) == 2
    # str.isdigit() takes these digits; int() rejects the first two untyped
    # and reads the third as 2203, which builds Q_8812
    for text in ("cyclic:1\u00b2", "dihedral:\u2460", "quaternion:220\u0663"):
        start = time.perf_counter()
        assert main(["kappa", text]) == 2
        assert time.perf_counter() - start < 5


def test_cmd_kappa_resource_exit(capsys):
    assert main(["kappa", "cyclic:10001"]) == 3


def test_cmd_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "28/28 rows match" in out
    assert "FAIL" not in out


def test_cmd_verify(capsys):
    assert main(["verify", "--max-n", "12"]) == 0
    assert "all n up to 12 verified" in capsys.readouterr().out


def test_cmd_verify_reports_failure(monkeypatch, capsys):
    from powertree.treecount import TreeNumber

    real = closedform.kappa_cyclic

    def wrong_when(flag, wrong=range(1, 100)):
        def kappa_cyclic(n, reduced=False):
            value = real(n, reduced)
            return TreeNumber(value.value + 1) if reduced == flag and n in wrong else value
        return kappa_cyclic

    # a forked helper runs with the patches of the process that forked it
    for width in (1, 2, 3):
        monkeypatch.setattr(numutil, "_lanes", lambda: width)
        monkeypatch.setattr(closedform, "kappa_cyclic", wrong_when(True))
        assert main(["verify", "--max-n", "6"]) == 1
        assert capsys.readouterr().out == "FAIL: kappa(Z_2 reduced): closed form 2 != matrix-tree 1\n"
        monkeypatch.setattr(closedform, "kappa_cyclic", wrong_when(False))
        assert main(["verify", "--max-n", "6"]) == 1
        assert capsys.readouterr().out == "FAIL: kappa(Z_1): closed form 2 != matrix-tree 1\n"
        # the smallest failing n is reported, whichever lane finds it
        monkeypatch.setattr(closedform, "kappa_cyclic", wrong_when(False, (5, 6, 9)))
        assert main(["verify", "--max-n", "12"]) == 1
        assert capsys.readouterr().out == "FAIL: kappa(Z_5): closed form 126 != matrix-tree 125\n"
        _no_child_left()


def test_cmd_verify_checks_cap_first(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work before the cap check")

    for target in (treecount, closedform):
        monkeypatch.setattr(target, "exact_integer_determinant", refuse)
    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    start = time.perf_counter()
    assert main(["verify", "--max-n", "20000"]) == 3
    assert time.perf_counter() - start < 5
    assert "cap" in capsys.readouterr().err


def test_cmd_verify_has_no_jobs_option(capsys):
    for argv in (["--jobs", "2"], ["--jobs", "0"], ["--jobs=1"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "3", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_cmd_verify_parallel(monkeypatch, capsys):
    # the same output at every width, from one helper per lane but the first;
    # the lanes take n in pairs, so max_n = 2 is one item and forks nothing
    monkeypatch.setattr(os, "fork", _counting_fork(os.fork))
    for width in (1, 2, 3):
        monkeypatch.setattr(numutil, "_lanes", lambda: width)
        for max_n in (1, 2, 8):
            _FORKS.clear()
            assert main(["verify", "--max-n", str(max_n)]) == 0
            assert capsys.readouterr().out == f"all n up to {max_n} verified\n"
            assert len(_FORKS) == min(width, (max_n + 1) // 2) - 1
    _no_child_left()


def test_cmd_verify_deals_pairs_and_reports_the_smallest_n(monkeypatch, capsys):
    from powertree.treecount import TreeNumber

    real = closedform.kappa_cyclic
    dealt = []

    def in_lanes(fn, items):
        dealt.append([tuple(ns) for ns in items])
        return numutil.in_lanes(fn, items)

    def wrong_at(*wrong):
        def kappa_cyclic(n, reduced=False):
            value = real(n, reduced)
            return TreeNumber(value.value + 1) if n in wrong else value
        return kappa_cyclic

    monkeypatch.setattr(cli, "in_lanes", in_lanes)
    assert main(["verify", "--max-n", "7"]) == 0
    assert dealt == [[(1, 2), (3, 4), (5, 6), (7,)]]
    capsys.readouterr()
    expected = {1: "closed form 2 != matrix-tree 1", 4: "closed form 17 != matrix-tree 16",
                7: "closed form 16808 != matrix-tree 16807", 8: "closed form 262145 != matrix-tree 262144",
                9: "closed form 4782970 != matrix-tree 4782969"}
    for width in (1, 2, 3):
        monkeypatch.setattr(numutil, "_lanes", lambda: width)
        # both members of a pair, the second only, an odd max_n's lone last n
        for wrong, max_n, first in (((7, 8), 9, 7), ((8, 9), 9, 8), ((4, 9), 9, 4),
                                    ((9,), 9, 9), ((1, 2), 1, 1)):
            monkeypatch.setattr(closedform, "kappa_cyclic", wrong_at(*wrong))
            assert main(["verify", "--max-n", str(max_n)]) == 1
            assert capsys.readouterr().out == f"FAIL: kappa(Z_{first}): {expected[first]}\n"
    _no_child_left()


def test_cmd_verify_on_one_core_forks_nothing(monkeypatch, capsys):
    # as under `taskset -c 0`: the affinity mask holds one core
    def refuse():
        raise AssertionError("fork on one core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    assert main(["verify", "--max-n", "8"]) == 0
    assert capsys.readouterr().out == "all n up to 8 verified\n"


def test_cmd_divisor_graph_fig1(capsys):
    assert main(["divisor-graph", "30", "--complement", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == [15, 10, 6, 5, 3, 2]
    assert len(payload["edges"]) == 9


def test_cmd_divisor_graph_12(capsys):
    assert main(["divisor-graph", "12", "--complement", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, payload["edges"])) == [(3, 2), (4, 3), (6, 4)]

    assert main(["divisor-graph", "12", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, payload["edges"])) == [(4, 2), (6, 2), (6, 3)]


def test_cmd_divisor_graph_prime(capsys):
    assert main(["divisor-graph", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == [] and payload["edges"] == []


def test_cmd_divisor_graph_dot(capsys):
    assert main(["divisor-graph", "12"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "6 -- 2;" in out


def test_cmd_classify(capsys):
    assert main(["classify", "3"]) == 0
    assert "Z_3, S_3" in capsys.readouterr().out
    assert main(["classify", "2"]) == 0
    assert "no group" in capsys.readouterr().out
    assert main(["classify", "1"]) == 0
    assert "elementary abelian 2-groups" in capsys.readouterr().out
    assert main(["classify", "200"]) == 2


def test_cmd_classify_a5_wiring(monkeypatch, capsys):
    # the real evidence chain runs in the acceptance suite; here only the
    # JSON emission and exit-code mapping are exercised
    from powertree import classify as classify_mod

    passing = [{"check": "x", "claim": "c", "computed": "v", "verdict": "PASS"}]
    monkeypatch.setattr(classify_mod, "verify_a5_recognition", lambda: passing)
    assert main(["classify", "--a5"]) == 0
    assert json.loads(capsys.readouterr().out) == passing

    failing = [{"check": "x", "claim": "c", "computed": "v", "verdict": "FAIL"}]
    monkeypatch.setattr(classify_mod, "verify_a5_recognition", lambda: failing)
    assert main(["classify", "--a5"]) == 1


def test_output_record_decimal_and_factored_agree(capsys):
    from powertree.numutil import parse_factored

    for spec in ["cyclic:12", "cyclic:30", "quaternion:3"]:
        assert main(["kappa", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert parse_factored(payload["factorization"]) == int(payload["kappa"])


def test_cmd_graph_json(capsys):
    assert main(["graph", "cyclic:4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 4
    assert len(payload["edges"]) == 6


def test_cmd_graph_dot_reduced(capsys):
    assert main(["graph", "elemabelian:2^2", "--reduced"]) == 0
    out = capsys.readouterr().out
    assert " -- " not in out  # no edges in the reduced star


def test_cmd_det(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[2, 1], [1, 2]]")
    assert main(["det", str(path)]) == 0
    assert capsys.readouterr().out == "3\n"

    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2, 3], [4, 5, 6]]")
    assert main(["det", str(bad)]) == 2

    floats = tmp_path / "floats.json"
    floats.write_text("[[1.5, 0], [0, 2]]")
    assert main(["det", str(floats)]) == 2

    # json.load raises a plain ValueError past the int-from-str digit limit
    long = tmp_path / "long.json"
    long.write_text(f"[[{'7' * 5000}]]")
    assert main(["det", str(long)]) == 2

    booleans = tmp_path / "bool.json"
    booleans.write_text("[[true]]")
    assert main(["det", str(booleans)]) == 2
    assert capsys.readouterr().out == ""

    assert main(["det", str(tmp_path / "missing.json")]) == 2


def test_cmd_det_checks_dimension_cap_first(tmp_path, capsys):
    def zeros(dim):
        path = tmp_path / f"zeros{dim}.json"
        path.write_text(json.dumps([[0] * dim for _ in range(dim)]))
        return str(path)

    assert main(["det", zeros(treecount.DENSE_MAX_DIM)]) == 0
    assert capsys.readouterr().out == "0\n"
    path = zeros(1000)
    start = time.perf_counter()
    assert main(["det", path]) == 3
    assert time.perf_counter() - start < 5
    assert "capped" in capsys.readouterr().err


def test_cmd_divisor_graph_checks_cap_first(capsys):
    assert main(["divisor-graph", "10000", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 10000
    assert main(["divisor-graph", "10001"]) == 3
    # two 61-bit primes: factoring their product first took seconds, then raised
    semiprime = str(1152921504606847009 * 1152921504606847067)
    start = time.perf_counter()
    assert main(["divisor-graph", semiprime]) == 3
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_cmd_verify_minimal(capsys):
    assert main(["verify", "--max-n", "1"]) == 0
    assert "all n up to 1 verified" in capsys.readouterr().out
    assert main(["verify", "--max-n", "0"]) == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []

    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "powertree":
            built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # start from an empty cache, and leave it empty
    clear = getattr(cli._build_parser, "cache_clear", lambda: None)
    clear()
    try:
        assert main(["kappa", "cyclic:12", "--format", "json"]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["kappa", "cyclic:12", "--method", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["kappa", "cyclic:12", "--format", "json"]) == 0
        assert capsys.readouterr().out == first
        assert main(["kappa", "cyclic:6", "--reduced"]) == 0
        assert capsys.readouterr().out == "40\n"
        # every parse gets a fresh namespace: no flag carries over
        assert main(["kappa", "cyclic:6"]) == 0
        assert capsys.readouterr().out == "540\n"
        assert built == [1]
    finally:
        clear()


def test_import_loads_only_what_a_default_call_uses():
    # none of these runs on a default call; the three powertree modules are
    # read from sys.modules by the bench child right after the import. verify
    # runs in forked lanes, which need no module for processes or pickling.
    unused = ("dataclasses", "inspect", "fractions", "decimal", "multiprocessing",
              "concurrent.futures", "socket", "subprocess")
    needed = ("powertree.closedform", "powertree.treecount", "powertree.numutil")
    after_verify = ("multiprocessing", "concurrent.futures", "pickle")
    code = (
        "import powertree.cli, sys\n"
        f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
        f"print(sorted(m for m in {needed!r} if m not in sys.modules))\n"
        "powertree.cli.main(['verify', '--max-n', '12'])\n"
        f"print(sorted(m for m in {after_verify!r} if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n[]\nall n up to 12 verified\n[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "dihedral:1000", "--method", "matrix-tree"],
        ["kappa", "cyclic:400", "--method", "decomposition"],
        ["kappa", "cyclic:400", "--reduced", "--method", "matrix-tree"],
        ["verify", "--max-n", "10000"],
    ],
)
def test_dense_routes_check_the_cap_first(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    assert f"capped at dimension {treecount.DENSE_MAX_DIM}" in capsys.readouterr().err


def test_cmd_kappa_method_all_leaves_out_dense_routes_above_the_cap(capsys):
    start = time.perf_counter()
    assert main(["kappa", "dihedral:1000", "--method", "all"]) == 0
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    value = format_decimal(closedform.kappa_dihedral(1000).value)
    assert captured.out == f"quotient: {value}\nclosed-form: {value}\n"
    assert "note: matrix-tree left out" in captured.err
    assert "note: decomposition left out" in captured.err


def test_cmd_kappa_method_all_refuses_decomposition_before_converting(capsys):
    # cyclic:2000 has more edges than blocks under the cap can hold
    start = time.perf_counter()
    assert main(["kappa", "cyclic:2000", "--method", "all"]) == 0
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    value = format_decimal(closedform.kappa_cyclic(2000).value)
    assert captured.out == f"quotient: {value}\nclosed-form: {value}\n"
    assert "note: decomposition left out: decomposition block capped at dimension 360;" in captured.err


@pytest.mark.parametrize("spec, fmt", [("cyclic:5040", "json"), ("cyclic:10000", "dot")])
def test_cmd_graph_checks_the_edge_cap_first(spec, fmt, capsys):
    start = time.perf_counter()
    assert main(["graph", spec, "--format", fmt]) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capped at {powergraph.RENDER_EDGE_LIMIT} edges" in captured.err


def test_cmd_kappa_method_all_notes_a_missing_closed_form(capsys):
    assert main(["kappa", "sym:4", "--method", "all"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "quotient: 331776\nmatrix-tree: 331776\ndecomposition: 331776\n"
    assert captured.err == "note: closed-form left out: no closed form for sym:4\n"


def test_each_command_builds_its_group_once(monkeypatch, capsys):
    built = []

    def counting_build(spec):
        built.append(spec.render())
        return build(spec)

    monkeypatch.setattr(cli, "build", counting_build)
    monkeypatch.setattr(numutil, "_lanes", lambda: 1)  # a forked helper's builds are not logged
    assert main(["kappa", "sym:4", "--method", "all"]) == 0
    assert built == ["sym:4"]
    built.clear()
    assert main(["kappa", "cyclic:12", "--method", "closed-form"]) == 0
    assert built == ["cyclic:12"]
    built.clear()
    assert main(["verify", "--max-n", "12"]) == 0
    assert built == [f"cyclic:{n}" for n in range(1, 13)]


# (argv, environment, det file text, exit code, stderr line); the first five
# lines name the group the builders and check_order name
REFUSALS = [
    (["kappa", "cyclic:0"], {}, None, 2, "error: cyclic parameter needs n >= 1, got 0"),
    (["kappa", "elemabelian:10007^1"], {}, None, 3, "error: Z_10007 has order 10007 > cap 10000"),
    (["kappa", "semidirect:10007:2"], {}, None, 3,
     "error: Z_10007⋊Z_2 has order 20014 > cap 10000"),
    (["verify", "--max-n", "20000"], {}, None, 3, "error: Z_20000 has order 20000 > cap 10000"),
    (["divisor-graph", "20000"], {}, None, 3, "error: Z_20000 has order 20000 > cap 10000"),
    (["kappa", "dihedral:0"], {}, None, 2, "error: dihedral parameter needs n >= 1, got 0"),
    (["kappa", "quaternion:0"], {}, None, 2, "error: quaternion parameter needs n >= 1, got 0"),
    (["kappa", "quaternion:2501"], {}, None, 3, "error: Q_10004 has order 10004 > cap 10000"),
    (["kappa", "perm:0:()"], {}, None, 2, "error: permutation degree must be 1..256, got 0"),
    (["kappa", "perm:9:(1 2 3 4 5 6 7 8 9);(1 2)"], {}, None, 3,
     "error: ⟨(1 2 3 4 5 6 7 8 9);(1 2)⟩ exceeds the order cap 10000"),
    (["kappa", "product:(sym:7)x(cyclic:2)"], {}, None, 3,
     "error: S_7×Z_2 has order 10080 > cap 10000"),
    (["classify"], {}, None, 2, "error: classify needs a target value or --a5"),
    (["det"], {}, "5", 2, "error: matrix file must hold a JSON array of arrays"),
    (["det"], {}, '{"a": 1}', 2, "error: matrix file must hold a JSON array of arrays"),
    (["det"], {}, "[1, 2]", 2, "error: matrix file must hold a JSON array of arrays"),
    (["kappa", "cyclic:3"], {"KAPPA_MAX_ORDER": "abc"}, None, 2,
     "error: KAPPA_MAX_ORDER must be an integer, got 'abc'"),
    (["kappa", "12"], {}, None, 2,
     "error: missing group kind at position 0 (expected one of cyclic, dihedral, quaternion, "
     "elemabelian, sym, alt, semidirect, product, perm)"),
]


@pytest.mark.parametrize("argv, env, matrix, code, line", REFUSALS,
                         ids=[" ".join(r[0]) + (f" {r[2]}" if r[2] else "") for r in REFUSALS])
def test_typed_refusal_prints_one_line(argv, env, matrix, code, line, tmp_path, monkeypatch,
                                       capsys):
    monkeypatch.delenv("KAPPA_MAX_ORDER", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if matrix is not None:
        path = tmp_path / "matrix.json"
        path.write_text(matrix, encoding="utf-8")
        argv = [*argv, str(path)]
    assert main(argv) == code  # an exception escaping main fails here
    assert capsys.readouterr() == ("", line + "\n")


def _without_timing(text):
    payload = json.loads(text)
    records = payload if isinstance(payload, list) else [payload]
    times = [r.pop("elapsed_ms") for r in records]
    return payload, times


@pytest.mark.parametrize("argv", [["kappa", "cyclic:12"],
                                  ["kappa", "dihedral:6", "--method", "all"]], ids=" ".join)
def test_timing_adds_elapsed_ms_to_json_only(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    plain_json = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "json", "--timing"]) == 0
    timed, times = _without_timing(capsys.readouterr().out)
    assert timed == plain_json
    assert len(times) == (4 if "all" in argv else 1)
    assert all(type(t) is float and t >= 0 and round(t, 3) == t for t in times)
    for fmt in ("plain", "factored"):
        assert main([*argv, "--format", fmt]) == 0
        untimed = capsys.readouterr()
        assert main([*argv, "--format", fmt, "--timing"]) == 0
        assert capsys.readouterr() == untimed


def test_module_entry_point_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "KAPPA_MAX_ORDER"}
    env["PYTHONPATH"] = src

    def run(spec):
        return subprocess.run([sys.executable, "-m", "powertree.cli", "kappa", spec],
                              capture_output=True, text=True, env=env)

    ok, refused = run("cyclic:6"), run("sym:8")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "540\n", "")
    assert (refused.returncode, refused.stdout) == (3, "")
    assert refused.stderr == "error: S_8 has order 40320 > cap 10000\n"


@pytest.mark.parametrize("argv", [
    ["kappa", "cyclic:12", "--method", "closed-form", "--format", "json"],
    ["kappa", "dihedral:6", "--method", "closed-form"],
    ["kappa", "quaternion:6", "--reduced", "--method", "closed-form"],
], ids=" ".join)
def test_closed_form_writes_the_rotation_record_once(argv, capsys):
    groups.cyclic_poset.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out
    info = groups.cyclic_poset.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # the build writes it, the closed form reads it
