from pathlib import Path

import powertree

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in powertree.__all__ if not hasattr(powertree, name)]
    assert missing == []
    assert len(set(powertree.__all__)) == len(powertree.__all__)


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
