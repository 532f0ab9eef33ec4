import json
import os
import sys
import time

import pytest

from powertree import cli, closedform, errors, treecount
from powertree.cli import main
from powertree.errors import DiscrepancyDetected, ParseError
from powertree.groups import GroupSpec, build
from powertree.numutil import format_decimal, is_prime, parse_factored
from powertree.specparse import parse_group_spec
from powertree.treecount import quotient_kappa

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


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_parse_render_round_trip(text):
    spec = parse_group_spec(text)
    assert parse_group_spec(spec.render()) == spec


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


def test_parse_errors_carry_position():
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
    expected = quotient_kappa(build(GroupSpec("cyclic", (420,))), reduced=True)
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
        assert capsys.readouterr().out.strip().isdigit()


def test_cmd_kappa_beyond_int_str_digit_limit(capsys):
    # kappa(Z_1500) has more decimal digits than str() renders by default
    assert main(["kappa", "cyclic:1500", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = quotient_kappa(build(GroupSpec("cyclic", (1500,)))).value
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

    def wrong_when(flag):
        def kappa_cyclic(n, reduced=False):
            value = real(n, reduced)
            return TreeNumber(value.value + 1) if reduced == flag else value
        return kappa_cyclic

    # one job: a monkeypatch does not reach pool workers
    monkeypatch.setattr(closedform, "kappa_cyclic", wrong_when(True))
    assert main(["verify", "--max-n", "6", "--jobs", "1"]) == 1
    assert "FAIL: kappa(Z_2 reduced): closed form 2 != matrix-tree 1" in capsys.readouterr().out
    monkeypatch.setattr(closedform, "kappa_cyclic", wrong_when(False))
    assert main(["verify", "--max-n", "6", "--jobs", "1"]) == 1
    assert "FAIL: kappa(Z_1): closed form 2 != matrix-tree 1" in capsys.readouterr().out


def test_cmd_verify_checks_cap_first(capsys):
    start = time.perf_counter()
    assert main(["verify", "--max-n", "20000"]) == 3
    assert time.perf_counter() - start < 5
    assert "cap" in capsys.readouterr().err


def test_cmd_verify_caps_jobs(monkeypatch, capsys):
    # the fake pool records its size and maps in this process: nothing forks
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return map(fn, values)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for max_n, jobs in ((2, 100000), (12, 100000), (12, 3), (3, 1)):
        assert main(["verify", "--max-n", str(max_n), "--jobs", str(jobs)]) == 0
    assert sizes == [2, 4, 3]  # one worker runs serially, without a pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert main(["verify", "--max-n", "3", "--jobs", "8"]) == 0
    assert sizes == [2, 4, 3]
    for jobs in ("0", "-5"):
        assert main(["verify", "--max-n", "3", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_cmd_verify_parallel(capsys):
    assert main(["verify", "--max-n", "8", "--jobs", "2"]) == 0
    assert "all n up to 8 verified" in capsys.readouterr().out


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

    assert main(["det", zeros(cli.DET_MAX_DIM)]) == 0
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
