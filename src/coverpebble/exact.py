"""Exhaustive cover-solvability decisions and exact cover pebbling numbers.

The solver runs a depth-first search over configurations.  Every move
removes one pebble from the board, so the state space is a directed
acyclic graph layered by configuration size and the search always
terminates.  Decisions are cached in a SolveMemo: a shared cache turns
a threshold scan over thousands of related configurations into mostly
cache lookups.

Configurations of a fixed size are enumerated in ascending
colexicographic order on the count vectors.  That order starts with
every stack on vertex 0, which is where unsolvable witnesses tend to
live, so failing scans exit early.  The threshold verifier splits that
order into contiguous rank ranges, so the split of work across threads
is deterministic.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterator, Optional

from .errors import BudgetExceeded, InternalAssertion, InvalidSpec
from .formulas import bound_report
from .graphs import Graph
from .pebbles import BinaryWeighting, Certificate, Configuration, PebblingMove, check_length


@dataclass(frozen=True)
class SolveOutcome:
    """Decision for one configuration, with a certificate when solvable."""

    solvable: bool
    certificate: Optional[Certificate]
    states_explored: int

    @property
    def decision(self) -> str:
        return "solvable" if self.solvable else "unsolvable"


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of checking every configuration of one size."""

    witness: Optional[Configuration]
    configs_checked: int

    @property
    def ok(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class GammaResult:
    """Exact cover pebbling number with an unsolvable witness one below."""

    gamma: int
    witness: Configuration
    configs_checked: int


class SolveMemo:
    """Shared decision cache for repeated solves on one search setup.

    ``fail`` holds count vectors known unsolvable.  ``win`` maps a count
    vector to one move of a known cover solution, or None when the
    vector is already covered; following those moves reconstructs a
    certificate.  Entries are only added, never changed, so concurrent
    readers in threads stay consistent.

    A memo is bound to the (graph, target set, pruning) combination of
    its first use and refuses reuse under a different one.
    """

    def __init__(self):
        self.fail: set[tuple[int, ...]] = set()
        self.win: dict[tuple[int, ...], Optional[tuple[int, int]]] = {}
        self._bound_key = None

    def bind(self, key) -> None:
        if self._bound_key is None:
            self._bound_key = key
        elif self._bound_key != key:
            raise ValueError("memo reused with a different graph, targets, or pruning")


class _CoverSearch:
    """Depth-first cover-solvability search bound to one graph and
    target set, with optional sound pruning."""

    def __init__(self, g: Graph, marked, memo: Optional[SolveMemo] = None, pruning: bool = True):
        self.g = g
        self.marked = tuple(sorted(marked))
        self.pruning = pruning
        self.memo = memo if memo is not None else SolveMemo()
        self.memo.bind((g.n, g.edges, self.marked, pruning))
        self.full_cover = len(self.marked) == g.n
        # weight of a pebble at v toward target t: 2**(diam - dist(v, t)).
        # No move increases the weighted total toward a fixed target, so a
        # configuration below the demand of some empty target cannot win.
        self.weight = {
            t: tuple(1 << (g.diam - g.dist[v][t]) for v in range(g.n)) for t in self.marked
        }
        self.demand = {t: sum(self.weight[t][u] for u in self.marked) for t in self.marked}

    def _covered(self, state: tuple[int, ...]) -> bool:
        if self.full_cover:
            return 0 not in state
        return all(state[t] for t in self.marked)

    def _prunable(self, state: tuple[int, ...]) -> bool:
        if sum(state) < len(self.marked):
            return True
        for t in self.marked:
            if state[t]:
                continue
            wt = self.weight[t]
            have = 0
            for v, c in enumerate(state):
                if c:
                    have += c * wt[v]
            if have < self.demand[t]:
                return True
        return False

    def _ordered_moves(self, state: tuple[int, ...]) -> list[tuple[int, int]]:
        # big piles first, stepping toward the nearest uncovered target;
        # index order breaks ties so the search is deterministic
        dist = self.g.dist
        uncovered = [t for t in self.marked if not state[t]]
        ranked = []
        for u, cu in enumerate(state):
            if cu < 2:
                continue
            for x in self.g.adj[u]:
                near = min(dist[x][t] for t in uncovered) if uncovered else 0
                ranked.append((-cu, near, u, x))
        ranked.sort()
        return [(u, x) for _, _, u, x in ranked]

    @staticmethod
    def _apply(state: tuple[int, ...], move: tuple[int, int]) -> tuple[int, ...]:
        u, x = move
        nxt = list(state)
        nxt[u] -= 2
        nxt[x] += 1
        return tuple(nxt)

    def decide(self, counts: tuple[int, ...], budget: Optional[int] = None) -> tuple[bool, int]:
        """Return (solvable, states explored).  Raises BudgetExceeded when
        more than ``budget`` fresh states get expanded."""
        win = self.memo.win
        fail = self.memo.fail
        explored = 0
        # frame: [state, move iterator or None, move that produced the state]
        frames: list[list] = [[counts, None, None]]
        solved = False
        while frames:
            frame = frames[-1]
            state = frame[0]
            if frame[1] is None:
                explored += 1
                if budget is not None and explored > budget:
                    raise BudgetExceeded(explored)
                if state in win or self._covered(state):
                    if state not in win:
                        win[state] = None
                    # record the discovered winning path
                    for parent, child in zip(frames, frames[1:]):
                        win[parent[0]] = child[2]
                    solved = True
                    break
                if state in fail or (self.pruning and self._prunable(state)):
                    fail.add(state)
                    frames.pop()
                    continue
                frame[1] = iter(self._ordered_moves(state))
            pushed = False
            for move in frame[1]:
                child = self._apply(state, move)
                if child in fail:
                    continue
                frames.append([child, None, move])
                pushed = True
                break
            if not pushed:
                fail.add(state)
                frames.pop()
        return solved, explored

    def winning_moves(self, counts: tuple[int, ...]) -> list[tuple[int, int]]:
        """Follow the cached win chain from a configuration decided solvable."""
        win = self.memo.win
        moves = []
        state = counts
        while True:
            step = win[state]
            if step is None:
                return moves
            moves.append(step)
            state = self._apply(state, step)


def _marked_vertices(g: Graph, b: Optional[BinaryWeighting]):
    if b is None:
        return range(g.n)
    check_length(b.marks, g.n, "weighting")
    return b.support


def solve(
    g: Graph,
    c: Configuration,
    b: Optional[BinaryWeighting] = None,
    *,
    budget: Optional[int] = None,
    pruning: bool = True,
    memo: Optional[SolveMemo] = None,
) -> SolveOutcome:
    """Decide whether a configuration can cover the targets.

    Without a weighting every vertex is a target.  A solvable outcome
    carries a certificate rebuilt from the memo's win chain; it always
    replays cleanly through validate_certificate.
    """
    check_length(c.counts, g.n, "configuration")
    search = _CoverSearch(g, _marked_vertices(g, b), memo=memo, pruning=pruning)
    solvable, explored = search.decide(c.counts, budget)
    certificate = None
    if solvable:
        moves = tuple(PebblingMove(u, x) for u, x in search.winning_moves(c.counts))
        certificate = Certificate(c, moves)
    return SolveOutcome(solvable, certificate, explored)


def composition_count(n: int, k: int) -> int:
    """Number of configurations of size k on n vertices."""
    return comb(k + n - 1, n - 1)


def _vectors_all(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (k,)
        return
    for last in range(k + 1):
        for head in _vectors_all(n - 1, k - last):
            yield head + (last,)


def iter_count_vectors(
    n: int, k: int, start: int = 0, stop: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Count vectors of size k on n vertices in ascending colexicographic
    order, restricted to the rank range [start, stop)."""
    if n < 1:
        raise InvalidSpec(f"need at least one vertex, got {n}")
    if k < 0:
        raise InvalidSpec(f"size must be nonnegative, got {k}")
    start = max(start, 0)
    if stop is not None:
        stop = max(stop, start)
    yield from islice(_vectors_all(n, k), start, stop)


def enumerate_configs(n: int, k: int) -> Iterator[Configuration]:
    """All configurations of size k on n vertices, colexicographically."""
    for vec in iter_count_vectors(n, k):
        yield Configuration(vec)


def verify_threshold(
    g: Graph,
    k: int,
    worker_count: int = 1,
    *,
    memo: Optional[SolveMemo] = None,
) -> ThresholdResult:
    """Check every configuration of size k; report the first unsolvable
    one in colexicographic order, if any.

    With several workers the rank range is split into contiguous chunks
    scanned in parallel.  A chunk stops early only when a witness is
    already known in a strictly earlier chunk, so the reported witness
    is the colexicographically first one regardless of worker count or
    scheduling.  configs_checked is likewise canonical: the witness rank
    plus one, or the full count when the size is good.  At most
    os.cpu_count() threads run the chunks.
    """
    if k < 0:
        raise InvalidSpec(f"size must be nonnegative, got {k}")
    search = _CoverSearch(g, range(g.n), memo=memo)
    total = composition_count(g.n, k)

    if worker_count <= 1:
        for rank, vec in enumerate(iter_count_vectors(g.n, k)):
            good, _ = search.decide(vec)
            if not good:
                return ThresholdResult(Configuration(vec), rank + 1)
        return ThresholdResult(None, total)

    bounds = [i * total // worker_count for i in range(worker_count + 1)]
    best_rank = total
    best_vec: Optional[tuple[int, ...]] = None
    found_lock = threading.Lock()

    def scan(chunk: int) -> None:
        nonlocal best_rank, best_vec
        lo, hi = bounds[chunk], bounds[chunk + 1]
        for offset, vec in enumerate(iter_count_vectors(g.n, k, lo, hi)):
            if best_rank < lo:
                return
            good, _ = search.decide(vec)
            if not good:
                with found_lock:
                    rank = lo + offset
                    if rank < best_rank:
                        best_rank = rank
                        best_vec = vec
                return

    with ThreadPoolExecutor(max_workers=min(worker_count, os.cpu_count() or 1)) as pool:
        list(pool.map(scan, range(worker_count)))

    if best_vec is None:
        return ThresholdResult(None, total)
    return ThresholdResult(Configuration(best_vec), best_rank + 1)


def gamma_exact(g: Graph, *, worker_count: int = 1) -> GammaResult:
    """Exact cover pebbling number by exhaustive threshold checks.

    The scan starts at the worst stack cost L, a proven lower bound, and
    steps up one size while a scan finds an unsolvable configuration.
    The cover pebbling theorem (Sjostrand, 2005) says L always passes,
    so the step is a safeguard, not a search.  When L passes, the scan
    at L - 1 supplies the witness; the lower bound says it must fail, so
    a pass there raises InternalAssertion.  The witness is the
    colexicographically first unsolvable configuration of size
    gamma - 1.  All scans share one memo.
    """
    memo = SolveMemo()
    k = bound_report(g).lower_stacked
    result = verify_threshold(g, k, worker_count, memo=memo)
    checked = result.configs_checked
    witness = None
    while not result.ok:
        witness = result.witness
        k += 1
        result = verify_threshold(g, k, worker_count, memo=memo)
        checked += result.configs_checked
    if witness is None:
        below = verify_threshold(g, k - 1, worker_count, memo=memo)
        checked += below.configs_checked
        if below.ok:
            raise InternalAssertion(
                f"every configuration of size {k - 1} is solvable, below the worst stack cost {k}"
            )
        witness = below.witness
    return GammaResult(k, witness, checked)
