"""Parser for the group-spec grammar used on the command line.

    cyclic:N  dihedral:N  quaternion:N  elemabelian:P^K  sym:M  alt:M
    semidirect:P:Q  product:(SPEC)x(SPEC)  perm:D:CYCLES;CYCLES

Integers are ASCII digits 0-9, as many as int() converts; a perm degree is at
most 256, and products nest at most MAX_PRODUCT_DEPTH deep. Cycle notation is
1-based and whitespace-insensitive, e.g. "(1 2 3)(4 5)".
GroupSpec.render() produces canonical text that parses back to an equal spec.
"""

from __future__ import annotations

import sys

from .errors import ParseError
from .groups import KINDS, MAX_PERM_POINTS, MAX_PRODUCT_DEPTH, GroupSpec

_EXPECTED_KIND = "one of " + ", ".join([*KINDS, "product", "perm"])


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(
                f"found {self.peek()!r}" if self.peek() else "input ended",
                self.pos,
                repr(ch),
            )
        self.pos += 1

    def read_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ParseError("missing group kind", start, _EXPECTED_KIND)
        return self.text[start : self.pos]

    def read_int(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        # ASCII only: str.isdigit() also takes '²', '①' and '٣', which int()
        # either rejects untyped or reads as another number
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"missing {what}", start, "an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            limit = f"at most {sys.get_int_max_str_digits()} digits"
            raise ParseError(f"{what} has {self.pos - start} digits", start, limit) from None


def _cycles_to_perm(scanner: _Scanner, degree: int) -> tuple[int, ...]:
    """Read one generator: a run of parenthesized cycles, applied in order."""
    perm = list(range(degree))
    saw_cycle = False
    while True:
        scanner.skip_ws()
        if scanner.peek() != "(":
            break
        scanner.pos += 1
        entries: list[int] = []
        while True:
            scanner.skip_ws()
            if scanner.peek() == ")":
                scanner.pos += 1
                break
            pos_before = scanner.pos
            value = scanner.read_int("cycle entry")
            if not 1 <= value <= degree:
                raise ParseError(
                    f"cycle entry {value} outside 1..{degree}", pos_before
                )
            if value in entries:
                raise ParseError(
                    f"repeated entry {value} in one cycle", pos_before
                )
            entries.append(value)
        saw_cycle = True
        if len(entries) > 1:
            mapping = list(range(degree))
            for a, b in zip(entries, entries[1:] + entries[:1]):
                mapping[a - 1] = b - 1
            perm = [mapping[x] for x in perm]
    if not saw_cycle:
        raise ParseError("found no cycle", scanner.pos, "'('")
    return tuple(perm)


def _parse_spec(scanner: _Scanner, depth: int = 0) -> GroupSpec:
    kind = scanner.read_ident()
    if kind not in KINDS and kind not in ("product", "perm"):
        raise ParseError(
            f"unknown group kind {kind!r}", scanner.pos - len(kind), _EXPECTED_KIND
        )
    scanner.expect(":")
    row = KINDS.get(kind)
    if row is not None:
        params = [scanner.read_int(row.params[0])]
        for name in row.params[1:]:
            scanner.expect(row.sep)
            params.append(scanner.read_int(name))
        return GroupSpec(kind, tuple(params))
    if kind == "product":
        if depth == MAX_PRODUCT_DEPTH:
            raise ParseError(f"product nested more than {MAX_PRODUCT_DEPTH} deep", scanner.pos)
        scanner.expect("(")
        left = _parse_spec(scanner, depth + 1)
        scanner.expect(")")
        scanner.expect("x")
        scanner.expect("(")
        right = _parse_spec(scanner, depth + 1)
        scanner.expect(")")
        return GroupSpec(kind, factors=(left, right))
    # perm:D:CYCLES;CYCLES
    scanner.skip_ws()
    start = scanner.pos
    degree = scanner.read_int("degree")
    if degree > MAX_PERM_POINTS:  # before a generator allocates range(degree)
        raise ParseError(f"degree {degree} above {MAX_PERM_POINTS}", start)
    scanner.expect(":")
    generators = [_cycles_to_perm(scanner, degree)]
    while True:
        scanner.skip_ws()
        if scanner.peek() != ";":
            break
        scanner.pos += 1
        generators.append(_cycles_to_perm(scanner, degree))
    return GroupSpec("perm", (degree,), generators=tuple(generators))


def parse_group_spec(text: str) -> GroupSpec:
    """Parse group-spec text; raises ParseError with position and expectation."""
    scanner = _Scanner(text)
    spec = _parse_spec(scanner)
    scanner.skip_ws()
    if scanner.pos != len(scanner.text):
        raise ParseError(
            f"unexpected trailing text {scanner.text[scanner.pos:]!r}",
            scanner.pos,
            "end of input",
        )
    return spec
