"""Exception types shared across the package.

Each type carries the CLI's exit code and stderr label for it, so the
command line reports every error the same way: 2 for usage errors (the
default), 3 when a resource cap is exceeded, 1 for a discrepancy.
"""


class PowerTreeError(Exception):
    """Base class for all powertree errors."""

    exit_code = 2
    label = "error"


class InvalidSpec(PowerTreeError):
    """A group specification violates a parameter constraint."""


class UnsupportedOrder(PowerTreeError):
    """Requested group order exceeds the configured maximum."""

    exit_code = 3


class NotPrime(PowerTreeError):
    """An argument required to be prime is not."""


class TrivialGroup(PowerTreeError):
    """Operation undefined on the one-element group."""


class OutOfRange(PowerTreeError):
    """Numeric argument outside the documented range."""


class TooLarge(PowerTreeError):
    """Input exceeds the size bound of an exact (exponential) method."""

    exit_code = 3


class TooManyDivisors(PowerTreeError):
    """Subset expansion would need more than 2^20 terms."""

    exit_code = 3


class EqualPrimes(PowerTreeError):
    """The two primes must be distinct."""


class NotPowerOfTwo(PowerTreeError):
    """Parameter must be a power of two."""


class NotEPO(PowerTreeError):
    """Group has a non-identity element of composite order."""


class InvalidPair(PowerTreeError):
    """Prime pair does not satisfy the congruence condition."""


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
