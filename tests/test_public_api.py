import importlib
import os
import subprocess
import sys
from pathlib import Path

import powertree

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in powertree.__all__ if not hasattr(powertree, name)]
    assert missing == []
    assert len(set(powertree.__all__)) == len(powertree.__all__)


def test_every_public_name_is_listed_star_imported_and_its_home_modules_own():
    assert set(powertree.__all__) <= set(dir(powertree))
    namespace = {}
    exec("from powertree import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(powertree.__all__)
    for name in powertree.__all__:
        value = getattr(powertree, name)
        assert namespace[name] is value, name
        home = importlib.import_module(f"powertree.{powertree._HOME[name]}")
        assert getattr(home, name) is value, name


def test_public_names_and_submodules_load_on_first_access():
    code = (
        "import sys, powertree\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('powertree.'))\n"
        "print(loaded())\n"
        "powertree.parse_group_spec\n"
        "print(loaded())\n"
        "print(powertree.treecount.as_multigraph.__name__, powertree.errors.TooLarge.__name__)\n"
        "print(hasattr(powertree, 'no_such_name'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    specparse = ["powertree.errors", "powertree.groups", "powertree.numutil", "powertree.specparse"]
    assert out == f"[]\n{specparse}\nas_multigraph TooLarge\nFalse\n"


def test_readme_library_example_shows_its_values():
    """Runs the README's Library block line by line; a line ending in a
    comment must evaluate to the repr that the comment shows."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, pending, shown = {}, [], 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        assert repr(eval(code, namespace)) == comment.strip(), code
        shown += 1
    exec("\n".join(pending), namespace)
    assert shown >= 5  # the five values the README shows today
