"""Pebble configurations, target weightings, moves and certificates.

The value types here are frozen: a pebbling move never mutates a
Configuration, it produces a new one.  A Certificate is nothing more
than a start configuration plus an ordered move list; its validity is
established by replaying it, never by trusting the producer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import IllegalMoveAt, InvalidSpec, LengthMismatch, NotCoveredAtEnd, ParseError
from .graphs import Graph


@dataclass(frozen=True)
class Configuration:
    """Pebble counts per vertex; the distribution being played."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        for c in self.counts:
            if not isinstance(c, int) or c < 0:
                raise InvalidSpec(f"pebble counts must be nonnegative integers, got {c!r}")

    @property
    def size(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class BinaryWeighting:
    """0/1 marks selecting which vertices must end up covered."""

    marks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        for m in self.marks:
            if m not in (0, 1):
                raise InvalidSpec(f"marks must be 0 or 1, got {m!r}")

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
    """All k pebbles on vertex v, everywhere else empty."""
    if not 0 <= v < g.n:
        raise InvalidSpec(f"vertex {v} out of range for order {g.n}")
    if k < 0:
        raise InvalidSpec(f"stack size must be nonnegative, got {k}")
    counts = [0] * g.n
    counts[v] = k
    return Configuration(tuple(counts))


def validate_certificate(
    g: Graph, cert: Certificate, b: Optional[BinaryWeighting] = None
) -> Configuration:
    """Replay a certificate and return the final configuration.

    Raises LengthMismatch when the start configuration does not fit the
    graph, IllegalMoveAt(index) on the first move that cannot be played,
    and NotCoveredAtEnd when the replay ends with empty targets.
    """
    check_length(cert.initial.counts, g.n, "certificate start")
    if b is not None:
        check_length(b.marks, g.n, "weighting")
    counts = list(cert.initial.counts)
    for index, move in enumerate(cert.moves):
        if not (0 <= move.src < g.n and 0 <= move.dst < g.n):
            raise IllegalMoveAt(index, move, "vertex out of range")
        if move.dst not in g.adj[move.src]:
            raise IllegalMoveAt(index, move, "vertices share no edge")
        if counts[move.src] < 2:
            raise IllegalMoveAt(index, move, f"source holds {counts[move.src]} pebbles")
        counts[move.src] -= 2
        counts[move.dst] += 1
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
