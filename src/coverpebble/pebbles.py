"""Pebble configurations, target weightings, moves and certificates.

The value types here are frozen: a pebbling move never mutates a
Configuration, it produces a new one.  A Certificate is nothing more
than a start configuration plus an ordered move list; its validity is
established by replaying it, never by trusting the producer.
"""

from __future__ import annotations

__all__ = [
    "BinaryWeighting", "Certificate", "Configuration", "PebblingMove", "format_config",
    "format_weighting", "is_covered", "is_permissible", "parse_config", "parse_weighting",
    "stacked", "validate_certificate",
]

from dataclasses import dataclass
from itertools import compress, count
from operator import is_not
from typing import Optional

from .errors import IllegalMoveAt, InvalidSpec, LengthMismatch, NotCoveredAtEnd, ParseError, check_int
from .graphs import Graph, check_vertex


@dataclass(frozen=True)
class Configuration:
    """Pebble counts per vertex, each checked by check_int."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        for c in self.counts:
            check_int(c, "pebble count")

    @property
    def size(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class BinaryWeighting:
    """0/1 marks, each checked by check_int, selecting the vertices to cover."""

    marks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        for m in self.marks:
            check_int(m, "marks", 0, 1)

    @property
    def order(self) -> int:
        """Number of marked vertices."""
        return sum(self.marks)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, m in enumerate(self.marks) if m)


@dataclass(frozen=True)
class PebblingMove:
    """Remove two pebbles from src, add one to dst."""

    src: int
    dst: int

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Certificate:
    """A replayable move sequence claimed to cover the targets."""

    initial: Configuration
    moves: tuple[PebblingMove, ...]

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))


def check_length(values, n: int, what: str) -> None:
    """Raise LengthMismatch unless a configuration or weighting has one
    entry per vertex of a graph of order n."""
    if len(values) != n:
        raise LengthMismatch(f"{what} has {len(values)} entries for order {n}")


def is_covered(c: Configuration, b: Optional[BinaryWeighting] = None) -> bool:
    """True when every target vertex holds at least one pebble.

    Without a weighting every vertex is a target.
    """
    if b is None:
        return all(x > 0 for x in c.counts)
    check_length(b.marks, len(c.counts), "weighting")
    return all(x > 0 for x, m in zip(c.counts, b.marks) if m)


def is_permissible(c: Configuration, b: BinaryWeighting) -> bool:
    """True when pebbles sit only on marked vertices."""
    check_length(b.marks, len(c.counts), "weighting")
    return all(m == 1 for x, m in zip(c.counts, b.marks) if x > 0)


def stacked(g: Graph, v: int, k: int) -> Configuration:
    """All k pebbles on vertex v, everywhere else empty.  Raises
    InvalidSpec unless v is a vertex of g, as check_vertex states, and
    as Configuration does for a bad k."""
    check_vertex(g, v)
    counts = [0] * g.n
    counts[v] = k
    return Configuration(tuple(counts))


def validate_certificate(
    g: Graph, cert: Certificate, b: Optional[BinaryWeighting] = None
) -> Configuration:
    """Replay a certificate and return the final configuration.

    Raises LengthMismatch when the start configuration does not fit the
    graph, IllegalMoveAt(index) on the first move that cannot be played,
    a move that is not a PebblingMove or whose vertex check_int refuses
    among them, and NotCoveredAtEnd when the replay ends with empty
    targets.

    The replay takes one step per run, a stretch of one move object
    repeated, as the strategies emit each hop of a send; equal moves
    that are distinct objects start new runs.  A run's type, vertices
    and edge are checked once, at its first index.  A run of r moves
    u -> x then plays exactly when u holds c >= 2r pebbles, since x is
    not u and u gains nothing meanwhile; otherwise the move at index
    start + c // 2 is the first that finds fewer than 2 on u, where u
    holds c % 2, as a replay move by move would report.
    """
    check_length(cert.initial.counts, g.n, "certificate start")
    if b is not None:
        check_length(b.marks, g.n, "weighting")
    counts = list(cert.initial.counts)
    moves = cert.moves
    starts = [0, *compress(count(1), map(is_not, moves[1:], moves))] if moves else []
    for start, end in zip(starts, [*starts[1:], len(moves)]):
        move = moves[start]
        if not isinstance(move, PebblingMove):
            raise IllegalMoveAt(start, move, "not a PebblingMove")
        src, dst = move.src, move.dst
        try:
            check_int(src, "move source", 0, g.n - 1)
            check_int(dst, "move target", 0, g.n - 1)
        except InvalidSpec:
            raise IllegalMoveAt(start, move, "vertex out of range") from None
        if dst not in g.adj[src]:
            raise IllegalMoveAt(start, move, "vertices share no edge")
        have, run = counts[src], end - start
        if have < 2 * run:
            raise IllegalMoveAt(start + have // 2, move, f"source holds {have % 2} pebbles")
        counts[src] = have - 2 * run
        counts[dst] += run
    final = Configuration(tuple(counts))
    if not is_covered(final, b):
        targets = range(g.n) if b is None else b.support
        raise NotCoveredAtEnd(v for v in targets if counts[v] == 0)
    return final


def format_config(c: Configuration) -> str:
    """One line of space-separated counts."""
    return " ".join(str(x) for x in c.counts)


def _parse_line(text: str, n: int, what: str) -> tuple[int, ...]:
    values = []
    for p in text.split():
        try:
            values.append(int(p))
        except ValueError:
            raise ParseError(f"{what} entries must be integers, got {p!r}") from None
    check_length(values, n, what)
    return tuple(values)


def parse_config(text: str, n: int) -> Configuration:
    """Parse a space-separated count line for a graph of order n."""
    values = _parse_line(text, n, "configuration")
    if any(v < 0 for v in values):
        raise ParseError("configuration entries must be nonnegative")
    return Configuration(values)


def format_weighting(b: BinaryWeighting) -> str:
    return " ".join(str(m) for m in b.marks)


def parse_weighting(text: str, n: int) -> BinaryWeighting:
    """Parse a space-separated 0/1 line for a graph of order n."""
    values = _parse_line(text, n, "weighting")
    if any(v not in (0, 1) for v in values):
        raise ParseError("weighting entries must be 0 or 1")
    return BinaryWeighting(values)
