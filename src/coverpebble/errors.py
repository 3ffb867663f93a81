"""Exception types shared across the library.

Every error raised on purpose derives from PebblingError so callers can
catch one base class at a process boundary.  Parsing and validation
failures carry enough structure (line numbers, move indices, vertex
sets) to produce a one-line diagnostic without string surgery.
InternalAssertion alone marks a bug rather than bad input: a failed
internal check, or a constructive strategy in a state its case analysis
does not handle.  check_int owns the one rule for integer arguments.
"""

from __future__ import annotations

__all__ = [
    "BudgetExceeded", "DisconnectedGraph", "IllegalMoveAt", "InternalAssertion", "InvalidEdge",
    "InvalidSpec", "LengthMismatch", "NotCoveredAtEnd", "ParseError", "PebblingError",
    "PreconditionViolated",
]


class PebblingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEdge(PebblingError):
    """An edge references a vertex out of range or is a self-loop."""


class DisconnectedGraph(PebblingError):
    """The edge set does not connect all vertices."""


class InvalidSpec(PebblingError, ValueError):
    """A value or parameter violates its documented constraints, such as
    a family description, a pebble count or a reused memo.  It is also a
    ValueError, so callers that catch ValueError still catch it."""


class LengthMismatch(PebblingError):
    """A configuration or weighting has the wrong number of entries."""


class IllegalMoveAt(PebblingError):
    """Certificate replay hit an illegal move at a specific index.  The
    message shows the move by str, src->dst for a PebblingMove, so a
    move of another type needs no src or dst."""

    def __init__(self, index: int, move, reason: str):
        super().__init__(f"move #{index} ({move}) is illegal: {reason}")
        self.index = index
        self.move = move
        self.reason = reason


class NotCoveredAtEnd(PebblingError):
    """Certificate replay finished but some target vertex is still empty."""

    def __init__(self, uncovered):
        self.uncovered = frozenset(uncovered)
        super().__init__(
            "replay finished with uncovered vertices "
            + " ".join(str(v) for v in sorted(self.uncovered))
        )


class BudgetExceeded(PebblingError):
    """The search visited more states than the caller allowed."""

    def __init__(self, states: int):
        super().__init__(f"state budget exhausted after {states} states")
        self.states = states


class PreconditionViolated(PebblingError):
    """Input does not meet the documented entry condition of a solver."""


class InternalAssertion(PebblingError):
    """An internal consistency check failed, or a constructive strategy
    reached a state its case analysis cannot handle; indicates a bug, not
    bad input.  Raised instead of emitting a wrong answer or certificate."""


def check_int(value, what: str, lo: int = 0, hi: int | None = None) -> None:
    """The package's one integer rule: raise InvalidSpec unless value is
    an int in lo..hi, or of at least lo when hi is None.  A bool is
    refused, as True would pass as vertex 1 or one pebble and print as
    "True", which the parsers refuse; so is any other type."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        rule = f"in {lo}..{hi}" if hi is not None else f"of at least {lo}" if lo else "and nonnegative"
        raise InvalidSpec(f"{what} must be an integer {rule}, got {value!r}")


class ParseError(PebblingError):
    """Malformed text input, with the 1-based line number when known."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)
