"""Exception types raised by the library.

Every error carries enough context for the CLI to print a one-line
diagnostic naming the error and the offending input.  Malformed input
(a bad label, an out-of-range rank or curve id) is a ValueError.  No
error reports a singular intersection form: it is negative definite by
construction, and the column solve asserts it.
"""

from __future__ import annotations


class GermvalError(Exception):
    """Base class for all library errors."""


class InvalidStep(GermvalError):
    """A blowup step violates the incidence rules.

    Attributes:
        index: 0-based position of the bad step in the step list.
        reason: human-readable explanation.
    """

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class NotAntinef(GermvalError):
    """A divisor expected to be antinef has positive intersection with
    some exceptional curve."""


class MldMinusInfinity(GermvalError):
    """The pair is not log canonical at the germ point, so no divisor
    computes its minimal log discrepancy."""
