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
stops when i is the last index.  The threshold verifier reports the
first unsolvable vector in that order.

gamma_exact runs two threshold scans: at the worst stack cost L, which
must pass, and at L - 1, which must fail.  By the cover pebbling
theorem (Sjostrand, 2005) L is the answer, so any other outcome is an
internal error, not a reason to search further.

Threshold scans lean on a bottom-up pass over a spanning tree.  A
cover solution needs no cycle of moves (Milans and Clark, 2006), so on
a tree each edge carries pebbles one way only: a subtree with s pebbles
to spare sends s // 2 to its parent, and one short of d pebbles costs
the parent 2d.  The root's balance then decides the configuration
exactly, in time linear in the order.  On a tree a min-plus DP over
the subtrees finds the least root balance over all configurations of a
size, with some vertices held at fixed counts, so a tree needs no scan:
fixing the vertices from the last down, each to the least count that
still leaves a failing placement, gives the first unsolvable vector,
and its rank comes from binomial sums.  On a graph with cycles
the pass over any spanning tree is a sound certificate: a tree that
passes moves pebbles along graph edges only.  The scan tries the BFS
tree from every vertex and calls the search only on configurations
that no tree certifies.  solve stays on the search, whose certificates
the pass does not give.

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

import sys
from dataclasses import dataclass
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
    certificate.  Entries are only added, never changed.

    A memo is bound to the (graph, target set, pruning) combination of
    its first use and refuses reuse under a different one.
    """

    def __init__(self):
        self.fail: set[tuple[int, ...]] = set()
        self.win: dict[tuple[int, ...], Optional[tuple[int, int]]] = {}
        self._bound_key = None

    def bind(self, g: Graph, marked, pruning: bool) -> None:
        """Bind on first use; raise InvalidSpec on a later use under
        another graph, target set or pruning setting."""
        key = (g.n, g.edges, tuple(sorted(marked)), pruning)
        if self._bound_key is None:
            self._bound_key = key
        elif self._bound_key != key:
            raise InvalidSpec("memo reused with a different graph, targets, or pruning")


class _CoverSearch:
    """Depth-first cover-solvability search bound to one graph and
    target set, with optional sound pruning.

    The search is fixed by its move order: from each state it tries the
    moves off the biggest piles first, then those stepping onto a vertex
    nearest an uncovered target, then by source and destination index.
    States, memo entries and certificates follow from that order alone,
    so any rewrite of the hot path must keep it exactly.

    Tables built once per search, read-only afterwards:

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
        self.memo.bind(g, self.marked, pruning)
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


def iter_count_vectors(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Count vectors of size k on n vertices in ascending colexicographic
    order."""
    if n < 1:
        raise InvalidSpec(f"need at least one vertex, got {n}")
    if k < 0:
        raise InvalidSpec(f"size must be nonnegative, got {k}")
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
    autos: list[tuple[int, ...]], vectors: Iterator[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rank, vector) for the vectors that no automorphism in ``autos``
    maps to a colexicographically smaller vector.

    Per automorphism p, a getter returns the vector moved by p in
    reverse, so comparing it with the reversed vector compares the two
    in colexicographic order.
    """
    getters = [itemgetter(*reversed(p)) for p in autos]
    for rank, vec in enumerate(vectors):
        rev = vec[::-1]
        for get in getters:
            if get(vec) < rev:
                break
        else:
            yield rank, vec


def _bfs_steps(g: Graph, root: int) -> tuple[tuple[int, int], ...]:
    """The (vertex, parent) pairs of the BFS tree of g from root, leaves
    first: deepest vertices first, in index order within one depth.  Each
    vertex's parent is its first neighbour one step nearer the root."""
    depth = g.dist[root]
    below = sorted((v for v in range(g.n) if v != root), key=depth.__getitem__, reverse=True)
    return tuple((v, next(p for p in g.adj[v] if depth[p] == depth[v] - 1)) for v in below)


def _tree_cover_test(g: Graph, root: int = 0) -> Callable[[tuple[int, ...]], bool]:
    """Full-cover test by the bottom-up pass over the BFS tree of g from
    root, as a function of a count vector.

    The pass visits the vertices leaves first, each with its parent.  A
    vertex's balance is its own pebbles plus what its children's subtrees
    pass up, minus the one pebble it keeps; a surplus s passes s // 2 up
    and a shortfall d costs the parent 2d.  The vector passes iff the
    root's balance is at least 1.  On a tree this is exact.  On a graph
    with cycles a pass is a cover solution that moves pebbles along tree
    edges only, so "solvable" is sound and "unsolvable" proves nothing.
    """
    steps = _bfs_steps(g, root)

    def solvable(vec: tuple[int, ...]) -> bool:
        bal = list(vec)
        for v, p in steps:
            b = bal[v] - 1
            bal[p] += b >> 1 if b >= 0 else 2 * b
        return bal[root] >= 1

    return solvable


def _passed_up(g: Graph, root: int, held: dict[int, int], spare: int) -> list[int]:
    """What the subtrees below root pass up to it in the pass of
    _tree_cover_test(g, root), at least, by the pebbles they take.

    The vertices in held keep their counts; spare pebbles go on root and
    the other vertices.  Entry j is the least sum that root's children
    pass up when the vertices below root take j of the spare pebbles, so
    root's balance is spare - j plus it.  A min-plus DP over the
    subtrees, leaves first: row[v][j] is the least balance that any
    placement of j spare pebbles in v's subtree leaves at v.  Each
    child's row joins its parent's by min-plus convolution after
    phi(b - 1), where phi(b) is b // 2 for b >= 0 and 2b for b < 0.  phi
    is nondecreasing and the subtrees are disjoint, so the least sum is
    the sum of the least terms.  O(n spare^2).
    """
    row = [[held[v]] if v in held else list(range(spare + 1)) for v in range(g.n)]
    row[root] = [0]
    for v, p in _bfs_steps(g, root):
        up = [b >> 1 if b >= 0 else 2 * b for b in (m - 1 for m in row[v])]
        acc = row[p]
        row[p] = [
            min(acc[j - i] + up[i] for i in range(max(0, j - len(acc) + 1), min(j, len(up) - 1) + 1))
            for j in range(min(len(acc) + len(up) - 1, spare + 1))
        ]
    return row[root]


def _tree_first_failure(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """The colexicographically first count vector of size k that the tree
    g cannot cover, or None when every one can.

    Colexicographic order compares the last vertex first, so the vertices
    are fixed from the last down, each to the least count that some
    placement of the rest on the lower vertices fails with.  Whether one
    fails is the pass's least balance with the tree rooted at that
    vertex: on a tree the pass is exact from every root, since each one
    decides whether the configuration has a cover solution.  n DPs of
    _passed_up, whatever the labels.
    """
    held: dict[int, int] = {}
    for v in reversed(range(g.n)):
        spare = k - sum(held.values())
        below = _passed_up(g, v, held, spare)
        # v keeps spare - j: the least count of v takes the largest j
        x = next((spare - j for j in reversed(range(len(below))) if spare - j + below[j] < 1), None)
        if x is None:
            return None
        held[v] = x
    return tuple(held[v] for v in range(g.n))


def _colex_rank(vec: tuple[int, ...]) -> int:
    """Rank of a count vector in the order of iter_count_vectors."""
    rank, rest = 0, sum(vec)
    for v in range(len(vec) - 1, 0, -1):
        # the vectors equal above v with fewer pebbles on v come first
        rank += comb(rest + v, v) - comb(rest - vec[v] + v, v)
        rest -= vec[v]
    return rank


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

    On a tree (a connected graph with n - 1 edges) the bottom-up pass of
    _tree_cover_test decides a configuration exactly: a subtree with
    surplus s sends s // 2 pebbles to its parent, a subtree short of d
    pebbles costs its parent 2d, and the root must end with a pebble.  It
    is exact because a cover solution needs no cycle of moves, so each
    tree edge carries pebbles one way only.  A tree is not scanned:
    _tree_first_failure finds the first unsolvable vector by n DPs over
    the pass, whatever the labels, and _colex_rank gives its rank, so the
    result is the one a scan reports.  Neither touches the memo, but the
    memo is still bound first, so one bound to another graph raises
    InvalidSpec.

    On a graph with cycles the scan first runs the pass on the BFS tree
    from every vertex.  Moves along a spanning tree are moves of the
    graph, so a tree that passes certifies the configuration solvable;
    only vectors that no tree certifies go to the search.

    The scan runs in ascending colexicographic order and stops at the
    first unsolvable representative.  configs_checked is its rank plus
    one, or the full count when the size is good: it counts the
    configurations the scan accounts for, skipped ones included.  A scan
    of more than sys.maxsize configurations raises InvalidSpec before it
    starts.

    worker_count is ignored.  It remains only because the benchmark's
    two-thread scan probe passes it, and goes with that probe (ROADMAP
    item 4).
    """
    if k < 0:
        raise InvalidSpec(f"size must be nonnegative, got {k}")
    total = composition_count(g.n, k)
    if len(g.edges) == g.n - 1:
        if memo is not None:
            memo.bind(g, range(g.n), True)
        witness = _tree_first_failure(g, k)
        if witness is None:
            return ThresholdResult(None, total)
        return ThresholdResult(Configuration(witness), _colex_rank(witness) + 1)
    if total > sys.maxsize:
        raise InvalidSpec(f"{total} configurations of size {k} on {g.n} vertices are too many to scan")
    search = _CoverSearch(g, range(g.n), memo=memo)
    trees = [_tree_cover_test(g, root) for root in range(g.n)]

    def solvable(vec: tuple[int, ...]) -> bool:
        for passes in trees:
            if passes(vec):
                return True
        return search.decide(vec)[0]

    for rank, vec in _orbit_representatives(_automorphisms(g), iter_count_vectors(g.n, k)):
        if not solvable(vec):
            return ThresholdResult(Configuration(vec), rank + 1)
    return ThresholdResult(None, total)


def gamma_exact(g: Graph) -> GammaResult:
    """Exact cover pebbling number by two exhaustive threshold checks.

    The worst stack cost L is a lower bound, and the cover pebbling
    theorem (Sjostrand, 2005) says it is the answer.  So the scan at L
    must pass and the scan at L - 1 must fail; either surprise raises
    InternalAssertion.  The witness is the colexicographically first
    unsolvable configuration of size L - 1, and configs_checked sums
    both scans.  The two scans share one memo.
    """
    memo = SolveMemo()
    k = bound_report(g).lower_stacked
    at = verify_threshold(g, k, memo=memo)
    if not at.ok:
        raise InternalAssertion(
            f"configuration {at.witness.counts} of size {k} is unsolvable, at the worst stack cost"
        )
    below = verify_threshold(g, k - 1, memo=memo)
    if below.ok:
        raise InternalAssertion(
            f"every configuration of size {k - 1} is solvable, below the worst stack cost {k}"
        )
    return GammaResult(k, below.witness, at.configs_checked + below.configs_checked)
