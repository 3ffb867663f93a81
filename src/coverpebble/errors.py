"""Exception types shared across the library.

Every error raised on purpose derives from PebblingError so callers can
catch one base class at a process boundary.  Parsing and validation
failures carry enough structure (line numbers, move indices, vertex
sets) to produce a one-line diagnostic without string surgery.
"""

from __future__ import annotations


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
    """Certificate replay hit an illegal move at a specific index."""

    def __init__(self, index: int, move, reason: str):
        super().__init__(f"move #{index} ({move.src}->{move.dst}) is illegal: {reason}")
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


class StrategyIncomplete(PebblingError):
    """A constructive strategy reached a state its case analysis cannot
    handle.  Raised instead of emitting a wrong certificate."""


class InternalAssertion(PebblingError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class ParseError(PebblingError):
    """Malformed text input, with the 1-based line number when known."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)
