"""The bench's trace layers are reached, not only resolvable.

bench/child.py times a layer by wrapping a package name where its callers
look it up. A name that still resolves but that the command no longer calls
through reads 0 with no warning, so these tests run commands with the
wrapped names counted.
"""

from collections import Counter

import pytest

from powertree import cli, closedform
from test_bench_targets import _patches

TRACED = [(closedform, "divisor_profile"), (cli, "build")]
CLOSED_FORM_COMMANDS = [
    ["kappa", "cyclic:12", "--method", "closed-form", "--format", "json"],
    ["kappa", "dihedral:6", "--method", "closed-form"],
]


def test_counted_names_are_bench_targets():
    targets = {(module, attr) for module, attr, _, _ in _patches()}
    assert {(module.__name__, attr) for module, attr in TRACED} <= targets


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=" ".join)
def test_closed_form_calls_each_traced_name_once(argv, monkeypatch, capsys):
    calls = Counter()
    for module, attr in TRACED:
        def counting(*args, _fn=getattr(module, attr), _attr=attr):
            calls[_attr] += 1
            return _fn(*args)

        monkeypatch.setattr(module, attr, counting)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert calls == {attr: 1 for _, attr in TRACED}
