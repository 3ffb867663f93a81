"""Constructive cover solvers that emit replayable certificates.

Each solver implements one guarantee: any configuration at or above its
size threshold gets covered by an explicit move sequence.  Below the
threshold the solver refuses with PreconditionViolated instead of
guessing.  If a strategy ever reaches a state its case analysis does
not handle, or its bookkeeping breaks, it raises InternalAssertion
rather than emit a certificate it cannot stand behind.  Callers can
replay any returned certificate through validate_certificate, and the
test suite does.
"""

from __future__ import annotations

__all__ = [
    "DiameterStep", "DiameterTrace", "format_trace", "shortest_path", "solve_diameter",
    "solve_multipartite", "solve_pigeonhole", "solve_wheel",
]

from dataclasses import dataclass
from typing import Optional

from .errors import InternalAssertion, PreconditionViolated
from .formulas import diameter_bound, gamma_multipartite, gamma_wheel, weighted_cover_bound
from .graphs import Graph, check_vertex, multipartite_edges, wheel_edges
from .pebbles import (
    BinaryWeighting,
    Certificate,
    Configuration,
    PebblingMove,
    check_length,
    format_config,
    format_weighting,
    is_permissible,
)


def shortest_path(g: Graph, src: int, dst: int) -> list[int]:
    """Lexicographically least among the shortest src-dst vertex paths.

    It reads the one distance row g.dist[dst], every vertex's distance
    to dst since distances are symmetric, and steps each time to the
    first neighbour one nearer dst: adjacency lists ascend, so that is
    the least such neighbour.

    Raises InvalidSpec unless src and dst are vertices of g, as
    check_vertex states."""
    check_vertex(g, src)
    check_vertex(g, dst)
    row = g.dist[dst]
    path = [src]
    cur = src
    while cur != dst:
        nearer = row[cur] - 1
        cur = next(x for x in g.adj[cur] if row[x] == nearer)
        path.append(cur)
    return path


def _send_along(path: list[int], exponent: int, counts: list[int], moves: list[PebblingMove]) -> int:
    """Move 2**exponent pebbles off path[0], halving across each edge.

    Returns the number of pebbles that land on path[-1].  The path must
    not be longer than the exponent or nothing would arrive.

    Each hop is one run: a single PebblingMove, from _run_move, repeated
    once per pebble landing.
    """
    if len(path) - 1 > exponent:
        raise InternalAssertion("path longer than the pebbles can travel")
    in_flight = 1 << exponent
    for a, b in zip(path, path[1:]):
        if counts[a] < in_flight:
            raise InternalAssertion("send exceeds the pebbles available en route")
        half = in_flight >> 1
        moves.extend([_run_move(moves, a, b)] * half)
        counts[a] -= in_flight
        counts[b] += half
        in_flight = half
    return in_flight


def _run_move(moves: list[PebblingMove], src: int, dst: int) -> PebblingMove:
    """The move src -> dst to append to moves: the last one in moves when
    it is that move, as when one donor sends twice through the same
    neighbour or a strategy repeats a single move, else a new one.  So
    moves holds one object per run of equal consecutive moves."""
    if moves and moves[-1].src == src and moves[-1].dst == dst:
        return moves[-1]
    return PebblingMove(src, dst)


def _unit_move(src: int, dst: int, counts: list[int], moves: list[PebblingMove]) -> None:
    if counts[src] < 2:
        raise InternalAssertion(f"strategy tried to move from vertex {src} holding {counts[src]}")
    counts[src] -= 2
    counts[dst] += 1
    moves.append(_run_move(moves, src, dst))


def solve_pigeonhole(g: Graph, b: BinaryWeighting, c: Configuration) -> Certificate:
    """Cover the marked vertices of a permissible configuration of size
    at least (|B| - 1) * 2**diam + 1.

    While some marked vertex is empty, some vertex must hold at least
    2**diam + 1 pebbles.  Sending 2**diam of them down a shortest path
    lands at least one pebble on the empty target and leaves the donor
    covered.  The freshly covered target is then frozen: its pebbles
    stop counting, so the same argument applies to the rest.
    """
    return Certificate(c, tuple(_pigeonhole_sends(g, b, c, [])))


def _pigeonhole_sends(g: Graph, b: BinaryWeighting, c: Configuration, moves: list[PebblingMove]) -> list[PebblingMove]:
    """solve_pigeonhole's checks and sends, appending the moves to moves
    and returning it.  solve_diameter passes the list of its own steps,
    so a run may continue across the handoff to the endgame.

    A send takes 2**diam pebbles off a donor holding at least
    2**diam + 1, nets 0 on every vertex between donor and target, and
    freezes its target.  So no marked vertex empties or fills but the
    target, and the empty targets are those empty at the start, covered
    in index order.  No vertex gains either, so one that holds fewer
    than 2**diam + 1 never becomes a donor again: the first donor only
    moves forward, and one cursor finds each in a single pass.
    """
    check_length(c.counts, g.n, "configuration")
    if not is_permissible(c, b):
        raise PreconditionViolated("configuration has pebbles on unmarked vertices")
    threshold = weighted_cover_bound(b.order, g.diam)
    if c.size < threshold:
        raise PreconditionViolated(
            f"size {c.size} is below the pigeonhole threshold {threshold}"
        )
    need = (1 << g.diam) + 1
    residual = list(c.counts)
    donor = 0
    for target in [v for v in b.support if residual[v] == 0]:
        while donor < g.n and residual[donor] < need:
            donor += 1
        if donor == g.n:
            raise InternalAssertion("no vertex holds enough pebbles for the next empty target")
        _send_along(shortest_path(g, donor, target), g.diam, residual, moves)
        # freeze the covered target together with everything delivered to it
        residual[target] = 0
    return moves


@dataclass(frozen=True)
class DiameterStep:
    """Snapshot of one step of the diameter strategy, taken before acting.

    donors are occupied vertices not yet settled, empty the vertices
    with no pebbles, settled the vertices locked at one pebble or more.
    """

    step: int
    donors: tuple[int, ...]
    empty: tuple[int, ...]
    settled: tuple[int, ...]
    action: str
    source: int
    target: Optional[int]
    pebbles: int
    path: tuple[int, ...]


@dataclass(frozen=True)
class DiameterTrace:
    """Step records plus the handoff state when the endgame ran."""

    steps: tuple[DiameterStep, ...]
    weighting: Optional[BinaryWeighting]
    residual: Optional[Configuration]


def format_trace(trace: DiameterTrace) -> str:
    """One line per step, plus the endgame handoff when present."""
    lines = []
    for s in trace.steps:
        head = (
            f"step {s.step}: donors={list(s.donors)} empty={list(s.empty)}"
            f" settled={list(s.settled)}"
        )
        if s.action == "retire":
            lines.append(f"{head} retire {s.source}")
        else:
            lines.append(
                f"{head} send {s.pebbles} from {s.source} to {s.target}"
                f" via {'-'.join(str(v) for v in s.path)}"
            )
    if trace.weighting is not None:
        lines.append(
            f"handoff: marks={format_weighting(trace.weighting)}"
            f" residual={format_config(trace.residual)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _check_diameter_state(m: int, donors: list[int], settled: list[int], counts: list[int], bound: int) -> None:
    # settled vertices keep their pebbles and the donor pool stays rich enough
    if len(settled) != m:
        raise InternalAssertion(f"{len(settled)} settled vertices at step {m}")
    for v in settled:
        if counts[v] < 1:
            raise InternalAssertion(f"settled vertex {v} lost its pebbles")
    spare = sum(counts[v] for v in donors)
    if spare < bound - ((1 << (m + 1)) - 2):
        raise InternalAssertion(f"donor pool holds {spare} pebbles at step {m}, too few")


def solve_diameter(g: Graph, c: Configuration) -> tuple[Certificate, DiameterTrace]:
    """Cover any configuration of size at least 2**diam * (n - diam + 1) - 1.

    For steps m = 0 .. diam-2 the strategy looks at the nearest pair of
    an unsettled occupied vertex and an empty vertex.  Either the
    occupied one holds at most 2**(m+1) pebbles and is settled as is, or
    2**(m+1) pebbles are sent to the empty one, which is then settled.
    Either way one more vertex is locked while the unsettled pool stays
    rich enough.  Afterwards at most diam-1 vertices are settled and the
    remaining pool meets the pigeonhole threshold for the rest.
    """
    check_length(c.counts, g.n, "configuration")
    n, d = g.n, g.diam
    bound = diameter_bound(n, d)
    if c.size < bound:
        raise PreconditionViolated(f"size {c.size} is below the diameter threshold {bound}")
    counts = list(c.counts)
    moves: list[PebblingMove] = []
    settled: list[int] = []
    steps: list[DiameterStep] = []
    for m in range(max(d - 1, 0)):
        donors = [v for v in range(n) if counts[v] > 0 and v not in settled]
        empty = [v for v in range(n) if counts[v] == 0]
        _check_diameter_state(m, donors, settled, counts, bound)
        if not empty:
            break
        if not donors:
            raise InternalAssertion("no pebbles left outside settled vertices")
        # the least (gap, donor, empty) triple: both lists ascend, so the
        # first donor at the least gap and its first empty vertex there
        gaps = [min(map(g.dist[r].__getitem__, empty)) for r in donors]
        gap = min(gaps)
        src = donors[gaps.index(gap)]
        row = g.dist[src]
        dst = next(s for s in empty if row[s] == gap)
        if gap > m + 1:
            raise InternalAssertion(
                f"nearest empty vertex is {gap} away at step {m}, limit {m + 1}"
            )
        quota = 1 << (m + 1)
        snapshot = (tuple(donors), tuple(empty), tuple(settled))
        if counts[src] <= quota:
            settled.append(src)
            steps.append(DiameterStep(m, *snapshot, "retire", src, None, 0, ()))
        else:
            path = shortest_path(g, src, dst)
            _send_along(path, m + 1, counts, moves)
            settled.append(dst)
            steps.append(DiameterStep(m, *snapshot, "send", src, dst, quota, tuple(path)))
    if all(x > 0 for x in counts):
        return Certificate(c, tuple(moves)), DiameterTrace(tuple(steps), None, None)
    marks = tuple(0 if v in settled else 1 for v in range(n))
    weighting = BinaryWeighting(marks)
    residual = Configuration(tuple(0 if v in settled else counts[v] for v in range(n)))
    _pigeonhole_sends(g, weighting, residual, moves)
    trace = DiameterTrace(tuple(steps), weighting, residual)
    return Certificate(c, tuple(moves)), trace


def solve_wheel(g: Graph, c: Configuration) -> Certificate:
    """Cover a wheel (hub vertex 0) from any configuration of size at
    least 4n - 5, n being the number of rim vertices.

    Rim vertices with spare pairs first cover their empty rim neighbors.
    If at least three rim vertices are then covered, remaining spare rim
    pairs are banked on the hub; with at most two covered no rim vertex
    can still hold a spare pair.  Either way the hub then covers every
    empty rim vertex.  With the whole rim empty, every pebble sits on the
    hub, which covers the rim directly.
    """
    check_length(c.counts, g.n, "configuration")
    rim_count = g.n - 1
    if rim_count < 3 or g.edges != wheel_edges(rim_count):
        raise PreconditionViolated("graph is not a wheel with hub 0")
    threshold = gamma_wheel(rim_count)
    if c.size < threshold:
        raise PreconditionViolated(f"size {c.size} is below the wheel threshold {threshold}")
    hub = 0
    rim = range(1, g.n)
    counts = list(c.counts)
    moves: list[PebblingMove] = []
    for w in rim:
        if counts[w] >= 3:
            # adj[w] is the hub, then w's two rim neighbors in index order
            for x in g.adj[w][1:]:
                if counts[x] == 0 and counts[w] >= 3:
                    _unit_move(w, x, counts, moves)

    covered = sum(1 for v in rim if counts[v] > 0)
    if covered >= 3:
        for w in rim:
            while counts[w] >= 3:
                _unit_move(w, hub, counts, moves)
    elif any(counts[w] >= 3 for w in rim):
        raise InternalAssertion("spare rim pair left although the rim is nearly empty")
    for x in rim:
        if counts[x] == 0:
            if counts[hub] < 3:
                raise InternalAssertion("hub ran dry while covering the rim")
            _unit_move(hub, x, counts, moves)
    if any(x == 0 for x in counts):
        raise InternalAssertion("wheel strategy finished with an uncovered vertex")
    return Certificate(c, tuple(moves))


def _active_threshold(groups: dict[int, list[int]]) -> int:
    shape = tuple(sorted((len(vs) for vs in groups.values()), reverse=True))
    return gamma_multipartite(shape)


def _star_base(groups: dict[int, list[int]], counts: list[int], moves: list[PebblingMove]) -> None:
    # two classes, at least one a singleton; the singleton from the later
    # class plays the hub, adjacent to every leaf
    (_, first), (_, second) = sorted(groups.items())
    if len(second) == 1:
        center, leaves = second[0], first
    else:
        center, leaves = first[0], second
    if counts[center] == 0:
        donor = min(leaves, key=lambda v: (-counts[v], v))
        if counts[donor] < 2:
            raise InternalAssertion("no pile can cover the hub of the star")
        _unit_move(donor, center, counts, moves)
    while True:
        hole = next((x for x in leaves if counts[x] == 0), None)
        if hole is None:
            break
        if counts[center] >= 3:
            _unit_move(center, hole, counts, moves)
            continue
        donor = min((v for v in leaves if counts[v] >= 3), key=lambda v: (-counts[v], v), default=None)
        if donor is None:
            raise InternalAssertion("piles exhausted with a leaf still uncovered")
        _unit_move(donor, center, counts, moves)
    if counts[center] == 0:
        raise InternalAssertion("star hub left uncovered")


def solve_multipartite(g: Graph, sizes, c: Configuration) -> Certificate:
    """Cover a complete multipartite graph, its classes in index blocks
    of the given sizes, largest first, from any configuration of size at
    least its closed-form cover pebbling number; refuse any other graph.

    Vertices needing no help are set aside one at a time: a vertex
    holding one or two pebbles is covered and never touched again, and
    an empty vertex adjacent to any occupied one costs a single move.
    Each removal lowers the closed-form threshold of what remains by at
    least two while spending at most two pebbles, so the invariant holds
    until only a star remains, which is covered directly.
    """
    sizes = tuple(sizes)
    threshold = gamma_multipartite(sizes)
    if g.n != sum(sizes) or g.edges != multipartite_edges(sizes):
        shape = ", ".join(map(str, sizes))
        raise PreconditionViolated(f"graph is not K({shape}) with its classes in index blocks, largest first")
    check_length(c.counts, g.n, "configuration")
    if c.size < threshold:
        raise PreconditionViolated(f"size {c.size} is below the threshold {threshold}")
    class_of = []
    for idx, s in enumerate(sizes):
        class_of.extend([idx] * s)
    counts = list(c.counts)
    moves: list[PebblingMove] = []
    active = list(range(g.n))
    while True:
        groups: dict[int, list[int]] = {}
        for v in active:
            groups.setdefault(class_of[v], []).append(v)
        held = sum(counts[v] for v in active)
        if held < _active_threshold(groups):
            raise InternalAssertion("active pool dropped below its cover threshold")
        if len(groups) == 1:
            if len(active) == 1 and counts[active[0]] >= 1:
                break
            raise InternalAssertion("active subgraph collapsed into one class")
        if len(groups) == 2 and min(len(vs) for vs in groups.values()) == 1:
            _star_base(groups, counts, moves)
            break
        small = next((v for v in active if counts[v] in (1, 2)), None)
        if small is not None:
            # covered already and cheap to protect: never touched again
            active.remove(small)
            continue
        empties = [v for v in active if counts[v] == 0]
        if not empties:
            break
        hole = empties[0]
        donor = next(
            (v for v in active if counts[v] > 0 and class_of[v] != class_of[hole]), None
        )
        if donor is not None:
            _unit_move(donor, hole, counts, moves)
            active.remove(hole)
            continue
        # every remaining pebble sits in the hole's class: push a pair out
        rich = next(v for v in active if counts[v] > 0)
        target = next(v for v in active if class_of[v] != class_of[rich])
        _unit_move(rich, target, counts, moves)
        active.remove(target)
    return Certificate(c, tuple(moves))
