"""Exception types shared across the package.

A type names an outcome, not a cause: the message says what went wrong.
Each type carries the CLI's exit code and stderr label for it, so the
command line reports every error the same way: 2 for usage errors
(`InvalidSpec`, `ParseError`, `NotEPO`), 3 when a size cap is exceeded
(`TooLarge`), 1 for a discrepancy (`DiscrepancyDetected`).
"""


class PowerTreeError(Exception):
    """Base class for all powertree errors."""

    exit_code = 2
    label = "error"


class InvalidSpec(PowerTreeError):
    """An input (spec, parameter, option or file) violates a documented constraint."""


class TooLarge(PowerTreeError):
    """An input exceeds a documented size cap or work budget."""

    exit_code = 3


class NotEPO(PowerTreeError):
    """Group has a non-identity element of composite order."""


class ParseError(PowerTreeError):
    """Group-spec text could not be parsed.

    Carries the offset of the failure and what was expected there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class DiscrepancyDetected(PowerTreeError):
    """Two supposedly-equal exact computations disagree.

    This always indicates a bug, never a rounding issue; nothing in the
    package computes approximately.
    """

    exit_code = 1
    label = "discrepancy"
