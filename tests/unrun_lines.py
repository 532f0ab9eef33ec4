"""Print every statement of src/powertree that the tier-1 suite never runs.

Runs the tier-1 suite (pytest on tests/) in this process under
sys.settrace, records each line of the package that executes, and prints
each statement whose line no test reached as `path:line: text`, then a
count. A statement counts only when it compiles to code, so docstrings and
comments are never listed.

Only this process is traced. Code that runs only in another process shows
as unrun: the child branch of numutil's `_spawn`, which runs in the forked
ECM lanes, and anything a test runs in a subprocess. Tracing makes the
suite about three times slower, and a test that times itself may fail
under it; the exit code is pytest's.

    python tests/unrun_lines.py [more pytest arguments]

The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "powertree"


def statements(path: Path) -> dict[int, str]:
    """The first line of each statement of `path` that compiles to code,
    mapped to its text."""
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits = {path: set() for path in sorted(PACKAGE.glob("*.py"))}
    by_name = {}  # each code object's file name -> its hit lines, None outside the package

    def on_line(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(Path(name).resolve())
        return None if by_name[name] is None else on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = total = 0
    for path, lines in hits.items():
        listed = statements(path)
        total += len(listed)
        for line, text in sorted(listed.items()):
            if line not in lines:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{unrun} of {total} statements never ran in this process"
          " (forked ECM lanes and subprocesses are not traced)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
