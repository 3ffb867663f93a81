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
live, so failing scans exit early.  The enumerator steps from one
vector to the next in place: with i the first nonzero index, it moves
one pebble up to i + 1 and gathers the other c[i] - 1 on vertex 0; it
stops when i is the last index.  The threshold verifier splits that
order into contiguous rank ranges, so the split of work across threads
is deterministic.

On a tree the threshold scan replaces the search with a bottom-up pass.
A cover solution needs no cycle of moves (Milans and Clark, 2006), so
each tree edge carries pebbles one way only: a subtree with s pebbles
to spare sends s // 2 to its parent, and one short of d pebbles costs
the parent 2d.  The root's balance then decides the configuration
exactly, in time linear in the order.  solve stays on the search,
whose certificates the pass does not give.

A threshold scan decides one configuration per automorphism orbit.  It
skips a count vector when one of up to 64 automorphisms of the graph
maps it to a colexicographically smaller vector, which then has the same
answer.  Any set of automorphisms is sound: from a skipped vector such
maps give a strictly decreasing chain that ends at a decided vector of
the same orbit, earlier in the scan.  The first unsolvable vector is
never skipped, because its images are unsolvable too and none comes
earlier, so the witness and configs_checked, which counts skipped
vectors too, are what a scan of every vector reports.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from math import comb
from operator import itemgetter, mul
from typing import Callable, Iterator, Optional

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
    target set, with optional sound pruning.

    The search is fixed by its move order: from each state it tries the
    moves off the biggest piles first, then those stepping onto a vertex
    nearest an uncovered target, then by source and destination index.
    States, memo entries and certificates follow from that order alone,
    so any rewrite of the hot path must keep it exactly.

    Tables built once per search, read-only afterwards, so threads
    sharing one search need no lock:

    - ``adj``: the graph's adjacency lists.
    - ``nearest``: per vertex x, the pairs (dist(x, t), t) over the
      targets t, sorted, so the first uncovered one gives x's distance to
      the nearest uncovered target.
    - ``targets``: per target t, the triple (t, weight row, demand) that
      the pruning test compares.
    """

    def __init__(self, g: Graph, marked, memo: Optional[SolveMemo] = None, pruning: bool = True):
        self.marked = tuple(sorted(marked))
        self.pruning = pruning
        self.memo = memo if memo is not None else SolveMemo()
        self.memo.bind((g.n, g.edges, self.marked, pruning))
        self.full_cover = len(self.marked) == g.n
        self.adj = g.adj
        dist = g.dist
        self.nearest = tuple(
            tuple(sorted((dist[x][t], t) for t in self.marked)) for x in range(g.n)
        )
        # weight of a pebble at v toward target t: 2**(diam - dist(v, t)).
        # No move increases the weighted total toward a fixed target, so a
        # configuration below the demand of some empty target cannot win.
        targets = []
        for t in self.marked:
            row = tuple(1 << (g.diam - dist[v][t]) for v in range(g.n))
            targets.append((t, row, sum(row[u] for u in self.marked)))
        self.targets = tuple(targets)

    def _covered(self, state: tuple[int, ...]) -> bool:
        if self.full_cover:
            return 0 not in state
        return all(state[t] for t in self.marked)

    def _prunable(self, state: tuple[int, ...]) -> bool:
        if sum(state) < len(self.marked):
            return True
        for t, row, demand in self.targets:
            if not state[t] and sum(map(mul, state, row)) < demand:
                return True
        return False

    def _ordered_moves(self, state: tuple[int, ...]) -> list[tuple[int, int]]:
        # big piles first, stepping toward the nearest uncovered target;
        # index order breaks ties so the search is deterministic
        near = []
        for pairs in self.nearest:
            for d, t in pairs:
                if not state[t]:
                    near.append(d)
                    break
            else:
                near.append(0)
        adj = self.adj
        ranked = [(-cu, near[x], u, x) for u, cu in enumerate(state) if cu > 1 for x in adj[u]]
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
    replays cleanly through validate_certificate.  A negative budget
    raises InvalidSpec.
    """
    check_length(c.counts, g.n, "configuration")
    if budget is not None and budget < 0:
        raise InvalidSpec(f"budget must be nonnegative, got {budget}")
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
    # colex successor on one list: with i the first nonzero index, move
    # one pebble up to i + 1 and gather the rest of c[i] on vertex 0
    c = [k] + [0] * (n - 1)
    last = n - 1
    while True:
        yield tuple(c)
        if not k:
            return
        i = 0
        while not c[i]:
            i += 1
        if i == last:
            return
        c[i + 1] += 1
        c[0] = c[i] - 1
        if i:
            c[i] = 0


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


# Automorphisms kept for the orbit skip.  Any subset of the group is
# sound.  The first 64 leave the same vectors to decide as the whole
# group on star 5 and K(3,3), which have 119 and 71 non-identity
# automorphisms; the star with 8 leaves alone has 40,319.
_AUT_CAP = 64


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Up to _AUT_CAP non-identity automorphisms of g, as tuples p mapping
    vertex v to p[v], in lexicographic order of p.

    Backtracks over images vertex by vertex.  An image must have the
    same multiset of distances to all vertices (so the same degree), and
    the same distance to the images of the earlier vertices as the
    vertex has to them.  A permutation keeping every distance keeps
    adjacency, and an automorphism keeps every distance.
    """
    n = g.n
    dist = g.dist
    profile = [sorted(row) for row in dist]
    image = [0] * n
    free = [True] * n
    found: list[tuple[int, ...]] = []
    identity = tuple(range(n))

    def extend(v: int) -> bool:
        # True once the cap is reached, so every level stops at once
        if v == n:
            p = tuple(image)
            if p != identity:
                found.append(p)
            return len(found) >= _AUT_CAP
        row = dist[v]
        for w in range(n):
            if not free[w] or profile[w] != profile[v]:
                continue
            wrow = dist[w]
            if any(row[u] != wrow[image[u]] for u in range(v)):
                continue
            image[v] = w
            free[w] = False
            stop = extend(v + 1)
            free[w] = True
            if stop:
                return True
        return False

    extend(0)
    return found


def _orbit_representatives(
    autos: list[tuple[int, ...]], vectors: Iterator[tuple[int, ...]], start: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rank, vector) for the vectors, ranked from ``start``, that no
    automorphism in ``autos`` maps to a colexicographically smaller vector.

    Per automorphism p, a getter returns the vector moved by p in
    reverse, so comparing it with the reversed vector compares the two
    in colexicographic order.
    """
    getters = [itemgetter(*reversed(p)) for p in autos]
    for rank, vec in enumerate(vectors, start):
        rev = vec[::-1]
        for get in getters:
            if get(vec) < rev:
                break
        else:
            yield rank, vec


def _tree_cover_test(g: Graph) -> Callable[[tuple[int, ...]], bool]:
    """Exact full-cover test for a tree, as a function of a count vector.

    Roots the tree at 0 and visits the vertices leaves first, each with
    its parent.  A vertex's balance is its own pebbles plus what its
    children's subtrees pass up, minus the one pebble it keeps; a
    surplus s passes s // 2 up and a shortfall d costs the parent 2d.
    The vector is solvable iff the root's balance is at least 1.  The
    test keeps no state between calls, so threads can share it.
    """
    depth = g.dist[0]
    steps = tuple(
        (v, next(p for p in g.adj[v] if depth[p] == depth[v] - 1))
        for v in sorted(range(1, g.n), key=depth.__getitem__, reverse=True)
    )

    def solvable(vec: tuple[int, ...]) -> bool:
        bal = list(vec)
        for v, p in steps:
            b = bal[v] - 1
            bal[p] += b >> 1 if b >= 0 else 2 * b
        return bal[0] >= 1

    return solvable


def verify_threshold(
    g: Graph,
    k: int,
    worker_count: int = 1,
    *,
    memo: Optional[SolveMemo] = None,
) -> ThresholdResult:
    """Check every configuration of size k; report the first unsolvable
    one in colexicographic order, if any.

    The scan decides one configuration per automorphism orbit.  Every
    vertex is a target, so any automorphism of g maps a cover solution
    of one configuration onto a cover solution of its image: the whole
    orbit is solvable or none of it is.  A count vector is skipped when
    one of up to _AUT_CAP automorphisms maps it to a colexicographically
    smaller vector.  That is sound for any subset of the group: following
    such maps from a skipped vector gives a strictly decreasing chain in
    its orbit, which ends at a vector that is not skipped, comes earlier
    in the scan and is decided.  The colexicographically first unsolvable
    vector is never skipped, since each of its images is unsolvable too
    and so none comes before it; it is still the reported witness.

    On a tree (a connected graph with n - 1 edges) each representative
    is decided by the bottom-up pass of _tree_cover_test instead of the
    search: a subtree with surplus s sends s // 2 pebbles to its parent,
    a subtree short of d pebbles costs its parent 2d, and the root must
    end with a pebble.  It is exact because a cover solution needs no
    cycle of moves, so each tree edge carries pebbles one way only.  The
    pass leaves the memo untouched, but the search is still built, so a
    memo bound to another graph still raises ValueError.

    With several workers the rank range is split into contiguous chunks
    scanned in parallel.  A chunk stops early only when a witness is
    already known in a strictly earlier chunk, so the reported witness
    is the colexicographically first one regardless of worker count or
    scheduling.  configs_checked is likewise canonical: the witness rank
    plus one, or the full count when the size is good.  It counts the
    configurations the scan accounts for, skipped ones included.  At
    most os.cpu_count() threads run the chunks.
    """
    if k < 0:
        raise InvalidSpec(f"size must be nonnegative, got {k}")
    search = _CoverSearch(g, range(g.n), memo=memo)
    if len(g.edges) == g.n - 1:
        solvable = _tree_cover_test(g)
    else:

        def solvable(vec: tuple[int, ...]) -> bool:
            return search.decide(vec)[0]

    total = composition_count(g.n, k)
    autos = _automorphisms(g)

    if worker_count <= 1:
        for rank, vec in _orbit_representatives(autos, iter_count_vectors(g.n, k), 0):
            if not solvable(vec):
                return ThresholdResult(Configuration(vec), rank + 1)
        return ThresholdResult(None, total)

    bounds = [i * total // worker_count for i in range(worker_count + 1)]
    best_rank = total
    best_vec: Optional[tuple[int, ...]] = None
    found_lock = threading.Lock()

    def scan(chunk: int) -> None:
        nonlocal best_rank, best_vec
        lo, hi = bounds[chunk], bounds[chunk + 1]
        for rank, vec in _orbit_representatives(autos, iter_count_vectors(g.n, k, lo, hi), lo):
            if best_rank < lo:
                return
            if not solvable(vec):
                with found_lock:
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
