"""Exhaustive cover-solvability decisions and exact cover pebbling numbers.

The solver runs a depth-first search over configurations.  Every move
removes one pebble from the board, so the state space is a directed
acyclic graph layered by configuration size and the search always
terminates.  Decisions are cached in a SolveMemo.

gamma_exact checks two sizes: the worst stack cost L, which must pass,
and L - 1, which must fail.  By the cover pebbling theorem (Sjostrand,
2005) L is the answer, so any other outcome is an internal error, not a
reason to search further.

Both solve and the threshold check first try the bottom-up passes over
BFS trees that _pass describes: exact on a tree, and a sound certificate
on a graph with cycles.  verify_threshold describes the threshold check
in full; solve says what it tries before its search.  Both take the
passes and the stack-potential refutation from one SolveMemo, which
keeps every table they build for a graph.
"""

from __future__ import annotations

__all__ = [
    "GammaResult", "SolveMemo", "SolveOutcome", "ThresholdResult", "composition_count",
    "gamma_exact", "iter_count_vectors", "solve", "verify_threshold",
]

import sys
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import comb
from operator import add, gt, lshift, mul, sub
from typing import Iterator, Optional

from .errors import BudgetExceeded, InternalAssertion, InvalidSpec, check_int
from .formulas import bound_report
from .graphs import Graph
from .pebbles import BinaryWeighting, Certificate, Configuration, PebblingMove, check_length

# Most entries in n rows of top + 1, for sizes up to top on n vertices:
# the rows a memo's DP plans keep, and those one DP builds besides.  Path
# 16 (L = 65,535) keeps 2**20 and answers in seconds; each vertex more on
# a path doubles L, and path 20 would need gigabytes.
MAX_ROW_ENTRIES = 1 << 21


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
    """Outcome of checking every configuration of one size.

    configs_checked is a colex rank, the witness's plus one, or the
    count of every configuration of the size when none fails; it is
    not the number of configurations the check visited.  On K(6,3)
    gamma_exact reports 23,535,821, every configuration of size 27 and
    the witness at rank 0 of size 26, and visits a small share of them."""

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
    """Depth-first cover-solvability search on one graph toward the
    targets T, the t with keep[t] = 1, with optional sound pruning, and the
    decision cache that repeated solves on that setup share.

    ``fail`` holds the states known unsolvable.  ``win`` maps a state to
    one move (u, x) of a known cover solution, or None when the state
    already covers its targets; following those moves reconstructs a
    certificate.  Both hold keys packed at one W (below), and entries
    are only added, never changed, while that W lasts.  A search that
    needs a wider W empties both first, so it keeps no entry from
    before.  W never narrows.  gamma_exact checks L before L - 1, so
    both its checks run at one W.

    A memo is bound to the graph, keep vector and pruning setting of its
    first use, and refuses reuse under others; a graph is the same when
    its order and edges are.  Binding records, once, the graph, the keep
    vector, ``pruning`` and the tree flag ``_is_tree``, whether the graph
    has fewer edges than vertices, and sets up ``_trees``,
    ``_potentials``, ``_twins`` and ``_top`` (last below); the other
    tables are derived at the first search.

    With pruning on, an expanded state goes to ``fail`` unexpanded when
    either of two counts proves it unsolvable:

    - the move count: fewer than |T| + u pebbles, u being its number of
      uncovered targets.  Each move takes one pebble off the board, a
      covering state holds at least |T| pebbles, and each uncovered
      target needs a move of its own landing on it, so a solution of m
      moves from a state of s pebbles has s - |T| >= m >= u;
    - the near potential: some uncovered target t whose near potential
      (below) is under t's demand.

    The search is fixed by its move order: from each state it tries the
    moves off the biggest piles first, then those stepping onto a vertex
    nearest an uncovered target, then by source and destination index,
    that is by (-c(u), near(x), u, x).  States, memo entries and
    certificates follow from that order alone, so any rewrite of the hot
    path must keep it exactly.

    Packed layout.  A state is one int with a field of W bits per vertex
    v, bits W*v .. W*v + W - 1, holding c(v); the top bit of each field
    is its guard bit.  W = (size << diam).bit_length() + 1 for the
    largest size seen, so every count and every near potential stays
    below its guard bit and no field ever carries into the next.  Then:

    - a move u -> x adds its state step (1 << W*x) - (2 << W*u);
    - the memo key is the state itself;
    - the cover test is (S + LOW) & GUARD_T == GUARD_T, where GUARD_T
      holds the targets' guard bits and LOW puts 2**(W-1) - 1 in each
      target field, so a field reaches its guard bit iff it holds a
      pebble;
    - t's near potential, sum_v c(v) * 2**(diam - d(v, t)), in which
      nearer pebbles count more, sits in field t of one int P, carried
      per frame as P + DP for the move's potential step DP.  No move
      raises it, and a state covering the targets has at least t's
      demand DEM_t, its value with one pebble on each target.  A state
      is pruned when some uncovered target is below its demand:
      ((P + GUARD_T - DEM) | covered) & GUARD_T != GUARD_T, where
      covered = (S + LOW) & GUARD_T marks the covered targets;
    - the move count reads the size from the frame depth, since each
      move takes one pebble off the board, and |T| - u as
      covered.bit_count(), so it prunes when
      size < 2 * |T| - covered.bit_count().

    The counts are decoded only when a state is expanded, to rank its
    moves.  The threshold check's stack potential (_refutes) is another
    quantity.

    Tables, built by ``_build``, which ``_fit`` calls when a search
    needs a wider W than the memo holds; every later search at that W
    reuses them, across solves:

    - ``marked``: the targets, in index order; ``n``, the order.
    - ``shifts``: W * v per vertex v; ``field``: (1 << W) - 1.
    - ``low``, ``guard``: LOW and GUARD_T above; ``guard_bits``: per
      target t, the pair (t, t's guard bit).
    - ``near_rows``: per vertex v, 2**(diam - d(v, t)) packed at field
      t for every target t, so P = sum_v c(v) * near_rows[v].
    - ``slack``: GUARD_T - DEM, nonnegative in every field whenever the
      move count passes.
    - ``moves_off``: per vertex u, its moves u -> x as (u * n + x, x,
      state step, potential step, (u, x)).

    Two caches keyed by the covered mask fill as the search meets
    masks: ``near``, near(x) per vertex x, and ``ranked``, a slot per
    vertex u holding, once u is first a source under the mask, u's moves
    as (key, state step, potential step, (u, x)) sorted by the key
    (near(x) * n + u) * n + x.  Sources with equal piles merge their
    moves by that key, which orders them by (near(x), u, x).

    ``_trees``: per root, the _bfs_steps from it, built on first use by
    ``_tree``, for the passes of ``_passing``, which solve and
    verify_threshold share, and for verify_threshold's DPs.
    ``_potentials``: per vertex t, the row of 2**d(w, t) over w and t's
    cost under the keep vector, built by ``_refutes`` at its first call.
    ``_twins``: per vertex, the next higher vertex of its twin class, or
    None, built by ``_twin_above`` at the first threshold check on a
    graph with cycles, not at bind, which every solve runs.  All three
    depend on the graph and keep vector alone, so a wider W keeps them.
    ``_plans``: per root, the fixed part of the threshold check's DPs
    from it (_dp_plan), built by ``_below`` at the root's first DP, with
    rows of ``_top`` + 1 entries, the largest size ``_size_plans`` has
    set; ``_shared``, rows any plan may hold; ``_kept``, the entries of
    the rows they keep, the shared ones among them.
    """

    def __init__(self):
        self.fail: set[int] = set()
        self.win: dict[int, Optional[tuple[int, int]]] = {}
        self._width = 0
        self._graph: Optional[Graph] = None

    def bind(self, g: Graph, keep: tuple[int, ...], pruning: bool) -> None:
        """Bind on first use; raise InvalidSpec on a later use under
        another graph, keep vector or pruning setting, the graph compared
        by its order and edges."""
        if self._graph is None:
            self._graph, self._keep, self.pruning, self._is_tree = g, keep, pruning, len(g.edges) < g.n
            self._trees, self._potentials, self._twins, self._top = [None] * g.n, None, None, -1
        elif (g.n, g.edges, keep, pruning) != (self._graph.n, self._graph.edges, self._keep, self.pruning):
            raise InvalidSpec("memo reused with a different graph, targets, or pruning")

    def _tree(self, root: int) -> tuple[tuple[int, int], ...]:
        """The _bfs_steps of the bound graph from root, built once."""
        if self._trees[root] is None:
            self._trees[root] = _bfs_steps(self._graph, root)
        return self._trees[root]

    def _size_plans(self, top: int) -> None:
        """Make the plans hold rows for spares up to top.  A top above
        the plans' drops them; the next DP from each root plans again."""
        if top > self._top:
            self._top, self._plans, self._shared, self._kept = top, [None] * self._graph.n, None, 0

    def _below(self, v: int, vec: list[int], spare: int) -> list[int]:
        """What the subtrees below v pass up to it, at least, by the spare
        pebbles they take, in the pass over the BFS tree from v; spare is
        at most ``_top``.  vec holds the counts of the vertices above v,
        which are held, and 0 at v and below, where the spare pebbles go.
        Entry j is the least sum that v's children pass up when the
        vertices below v take j of them, so v's balance is spare - j plus
        it.  The row may be one the plan keeps, which runs past entry
        spare and must not be changed.

        v's plan (_dp_plan) is built at its first DP and kept.  Each DP
        adds up the held-only subtrees' ints, leaves first, then passes
        each mixed vertex's up row (_up), from its fixed row and its
        mixed children's rows, to its parent (_join)."""
        plan = self._plans[v]
        if plan is None:
            plan = self._plan(v)
        ints, mixed, fixed, offsets = plan
        bal = vec[:]
        for u, c in offsets:
            bal[u] += c
        for u, p in ints:
            b = bal[u]
            bal[p] += (b - 1) >> 1 if b > 0 else 2 * b - 2
        row = fixed.copy()
        free = self._shared[0]
        m = spare + 1
        for u, p in mixed:
            row[p] = _join(row.get(p), _up(row[u], bal[u], m), free)
        top, off = row.get(v), bal[v]
        if top is None:
            return [off]
        return list(map(off.__add__, top[:m])) if off else top

    def _plan(self, v: int) -> tuple:
        """Build and keep v's plan, and the shared rows at the first.
        The plans keep at most n rows, n * (_top + 1) entries: a plan
        that would keep more drops the others first.  One plan keeps at
        most (n - 1) // 2 rows, each with two free vertices below it that
        no other row of it has, so it fits beside the two shared rows on
        two or more vertices; the check plans nothing on one."""
        n, top = self._graph.n, self._top
        if self._shared is None:
            free = range(top + 1)
            free_up = _up(free, 0, top + 1)
            self._shared = (free, free_up, _join(free, free_up, free))
            self._kept = 2 * (top + 1)
        plan, kept = _dp_plan(self._tree(v), v, self._shared)
        if self._kept + kept > n * (top + 1):
            self._plans, self._kept = [None] * n, 2 * (top + 1)
        self._plans[v] = plan
        self._kept += kept
        return plan

    def _twin_above(self) -> list[Optional[int]]:
        """Per vertex, the next higher vertex of its twin class, or None;
        built on first use.  u and v are twins when N(u) - {v} = N(v) -
        {u}: false twins share their neighbours, true twins their closed
        neighbourhoods, so the classes are keyed by the sorted adj tuple
        and by that tuple with the vertex put in.  No key of one kind
        equals a key of the other, and no vertex has twins of both kinds:
        were u, v false twins and u, w true twins, then w in N(u) = N(v),
        so v in N[w] = N[u], though false twins are not adjacent."""
        if self._twins is None:
            adj = self._graph.adj
            self._twins = twins = [None] * len(adj)
            # from the top down, the last vertex seen with a key is the
            # next higher one of its class
            last: dict[tuple[int, ...], int] = {}
            for v in range(len(adj) - 1, -1, -1):
                closed = tuple(sorted((*adj[v], v)))
                twins[v] = last.get(adj[v], last.get(closed))
                last[adj[v]] = last[closed] = v
        return self._twins

    def _passing(self, vec: tuple[int, ...]) -> Optional[tuple[tuple[tuple[int, int], ...], list[int]]]:
        """The steps and balances of the first pass (_pass) that keeps the
        bound keep vector on vec and succeeds, or None.  On a tree the one
        from root 0 decides exactly; on a graph with cycles the BFS trees
        from each root are tried in index order."""
        keep = self._keep
        for root in (0,) if self._is_tree else range(self._graph.n):
            steps = self._tree(root)
            bal = _pass(steps, root, vec, keep)
            if bal is not None:
                return steps, bal
        return None

    def _refutes(self, vec: tuple[int, ...]) -> bool:
        """Whether vec's stack potential toward some vertex t, sum_w vec[w] *
        2**d(w, t), in which farther pebbles count more, is below t's cost,
        sum_u keep[u] * 2**d(u, t), which proves vec unsolvable.  A move
        takes 2 pebbles off u and puts 1 on a neighbour at most one step
        farther from t, so no move raises it, and a covering vector has at
        least t's cost (Sjostrand, 2005).  Under the all-ones keep the cost
        is t's stack cost.  The rows of 2**d(w, t) and the costs are built
        on first use and kept.  The search's near potential is another
        quantity."""
        if self._potentials is None:
            rows = [tuple(1 << d for d in dist) for dist in self._graph.dist]
            self._potentials = [(row, sum(map(mul, self._keep, row))) for row in rows]
        return any(sum(map(mul, vec, row)) < cost for row, cost in self._potentials)

    def _fit(self, size: int) -> None:
        """Make the tables hold states of ``size`` pebbles.  A size that
        needs a wider W empties ``fail`` and ``win``, whose keys are
        packed at the old W, and rebuilds the tables at the new one."""
        width = (size << self._graph.diam).bit_length() + 1
        if width > self._width:
            self.fail.clear()
            self.win.clear()
            self._build(width)

    def _build(self, w: int) -> None:
        g = self._graph
        self.marked = marked = tuple(v for v, k in enumerate(self._keep) if k)
        self.n = n = g.n
        diam = g.diam
        self._width = w
        self.shifts = shifts = range(0, n * w, w)
        self.field = (1 << w) - 1
        at_targets = [shifts[t] for t in marked]
        ones = sum(map(lshift, repeat(1), at_targets))
        self.guard = ones << (w - 1)
        self.guard_bits = [(t, 1 << (shift + w - 1)) for t, shift in zip(marked, at_targets)]
        self.low = self.guard - ones
        weight = [1 << (diam - d) for d in range(diam + 1)]
        rows = [sum(map(lshift, map(weight.__getitem__, map(row.__getitem__, marked)), at_targets)) for row in g.dist]
        self.near_rows = rows
        self.slack = self.guard - sum(map(rows.__getitem__, marked))
        self.moves_off = [
            [(u * n + x, x, (1 << shifts[x]) - (2 << shifts[u]), rows[x] - 2 * rows[u], (u, x)) for x in xs]
            for u, xs in enumerate(g.adj)
        ]
        self.near: dict[int, list[int]] = {}
        self.ranked: dict[int, list] = {}

    def _pack(self, counts: tuple[int, ...]) -> int:
        return sum(map(lshift, counts, self.shifts))

    def _potential(self, counts: tuple[int, ...]) -> int:
        """The near potentials of counts toward every target, packed."""
        return sum(map(mul, counts, self.near_rows))

    def _rank(self, covered: int, u: int) -> tuple:
        """u's moves under a covered mask, as ``ranked`` holds them; the
        mask's near(x) is worked out on its first use."""
        near = self.near.get(covered)
        if near is None:
            uncovered = [t for t, bit in self.guard_bits if not covered & bit]
            near = [min(map(row.__getitem__, uncovered)) for row in self._graph.dist] if uncovered else [0] * self.n
            self.near[covered] = near
        nn = self.n * self.n
        moves = tuple(sorted([(near[x] * nn + ux, step, drop, move) for ux, x, step, drop, move in self.moves_off[u]]))
        self.ranked[covered][u] = moves
        return moves

    def _expand(self, state: int, potential: int, size: int, covered: int):
        """The moves of an expanded state in search order, each as (rank
        key, state step, potential step, (u, x)), or None when the state
        is pruned.  ``covered`` is (state + LOW) & GUARD_T and ``size``
        the state's pebble count."""
        if self.pruning:
            guard = self.guard
            if size < 2 * len(self.marked) - covered.bit_count() or ((potential + self.slack) | covered) & guard != guard:
                return None
        slots = self.ranked.get(covered)
        if slots is None:
            slots = self.ranked[covered] = [None] * self.n
        field = self.field
        counts = [state >> s & field for s in self.shifts]
        sources = [u for u, c in enumerate(counts) if c > 1]
        # big piles first, the stable sort keeping index order among
        # equal piles, whose moves then merge by their keys (near(x), u, x)
        sources.sort(key=counts.__getitem__, reverse=True)
        runs = []
        last = 0
        for u in sources:
            moves = slots[u] or self._rank(covered, u)
            if counts[u] == last:
                runs[-1] = sorted(chain(runs[-1], moves))
            else:
                runs.append(moves)
                last = counts[u]
        return chain.from_iterable(runs)

    def _decide(self, counts: tuple[int, ...], budget: Optional[int] = None) -> tuple[bool, int]:
        """Return (solvable, states explored), counting the states
        visited: the root, whatever the memo holds for it, and each state
        a move reaches that ``fail`` does not hold, whether it then wins,
        is pruned or is expanded.  The budget is checked at each visit,
        before the win test, so the visit past ``budget`` raises
        BudgetExceeded, and a budget of 0 stops even at a root the memo
        has already decided.

        A visited state gets a frame only when it is expanded, so the
        states that are pruned or known to fail cost no frame."""
        size = sum(counts)
        self._fit(size)
        win = self.win
        fail = self.fail
        low, guard, expand = self.low, self.guard, self._expand
        limit = sys.maxsize if budget is None else budget
        explored = 0
        # frames of the expanded states on the path: [state, potential, move iterator, move that produced it]
        frames: list[list] = []
        state, potential, move = self._pack(counts), self._potential(counts), None
        while True:
            explored += 1
            if explored > limit:
                raise BudgetExceeded(explored)
            covered = (state + low) & guard
            if state in win or covered == guard:
                win.setdefault(state, None)
                # record the discovered winning path
                for parent, child in zip(frames, frames[1:]):
                    win[parent[0]] = child[3]
                if frames:
                    win[frames[-1][0]] = move
                return True, explored
            moves = None if state in fail else expand(state, potential, size - len(frames), covered)
            if moves is None:
                fail.add(state)
            else:
                frames.append([state, potential, moves, move])
            # take the next move not known to fail, backtracking as needed
            while frames:
                parent, reached, moves, _ = frames[-1]
                for _, step, drop, move in moves:
                    state = parent + step
                    if state not in fail:
                        break
                else:
                    fail.add(parent)
                    frames.pop()
                    continue
                potential = reached + drop
                break
            else:
                return False, explored

    def _winning_moves(self, counts: tuple[int, ...]) -> list[tuple[int, int]]:
        """Follow the cached win chain from a configuration just decided
        solvable, at the width its search ran."""
        win, shifts = self.win, self.shifts
        moves = []
        state = self._pack(counts)
        while True:
            move = win[state]
            if move is None:
                return moves
            moves.append(move)
            u, x = move
            state += (1 << shifts[x]) - (2 << shifts[u])


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

    Without a weighting every vertex is a target.  Three tests run in
    turn.  First the move count that SolveMemo proves: fewer pebbles
    than the targets plus the targets without a pebble is unsolvable.
    Then the memo's passes (SolveMemo._passing), each keeping one pebble
    on each target (see _pass): on a tree the one from root 0 decides
    exactly, and on a graph with cycles the BFS trees from each root in
    index order are tried until one passes.  Only a configuration on a
    graph with cycles that no tree passes reaches the search.

    A solvable outcome carries a certificate, the passing tree's moves
    (_pass_moves) or the search's win chain.  A tree's moves come in
    runs, one per send up an edge and one per deficit filled down an
    edge, and each run repeats one PebblingMove object.  A certificate
    always replays cleanly through validate_certificate, and a
    configuration that already covers its targets gets no moves.  An
    answer from the move count or a pass reports states_explored 0 and
    writes nothing to the memo; budget and pruning apply to the search
    only.  A given memo is bound at entry on every call, so one bound to
    another graph, target set or pruning setting raises InvalidSpec even
    when the search does not run.  Without a memo the search runs on a
    fresh one.  check_int refuses a negative budget.
    """
    check_length(c.counts, g.n, "configuration")
    if budget is not None:
        check_int(budget, "budget")
    if b is not None:
        check_length(b.marks, g.n, "weighting")
    keep = (1,) * g.n if b is None else b.marks
    memo = memo if memo is not None else SolveMemo()
    memo.bind(g, keep, pruning)
    # the targets plus the targets without a pebble
    if c.size < sum(keep) + sum(map(gt, keep, c.counts)):
        return SolveOutcome(False, None, 0)
    passed = memo._passing(c.counts)
    if passed is not None:
        steps, bal = passed
        return SolveOutcome(True, Certificate(c, _pass_moves(steps, c.counts, keep, bal)), 0)
    if memo._is_tree:
        return SolveOutcome(False, None, 0)
    solvable, explored = memo._decide(c.counts, budget)
    certificate = None
    if solvable:
        moves = tuple(PebblingMove(u, x) for u, x in memo._winning_moves(c.counts))
        certificate = Certificate(c, moves)
    return SolveOutcome(solvable, certificate, explored)


def composition_count(n: int, k: int) -> int:
    """Number of configurations of size k on n vertices.  check_int
    refuses an n below 1 and a negative k."""
    check_int(n, "order", 1)
    check_int(k, "size")
    return comb(k + n - 1, n - 1)


def iter_count_vectors(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Count vectors of size k on n vertices in ascending colexicographic
    order.

    That order starts with the whole stack on vertex 0, which is where
    unsolvable witnesses tend to live.  The vectors come from one list
    stepped in place: with i the first nonzero index, one pebble moves
    up to i + 1 and the other c[i] - 1 gather on vertex 0; the order
    ends when i is the last index.  The threshold check reports the
    first unsolvable vector in this order, but does not scan.  Raises
    InvalidSpec, at the first next(), as composition_count does.
    """
    check_int(n, "order", 1)
    check_int(k, "size")
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


def _bfs_steps(g: Graph, root: int) -> tuple[tuple[int, int], ...]:
    """The (vertex, parent) pairs of the BFS tree of g from root, leaves
    first: deepest vertices first, in index order within one depth.  Each
    vertex's parent is its first neighbour one step nearer the root.

    Both come from C-level calls: a stable sort by depth, which ends
    with the root, the one vertex at depth 0; and per vertex, the index
    of depth - 1 among its neighbours' depths."""
    depth = g.dist[root]
    adj = g.adj
    below = sorted(range(g.n), key=depth.__getitem__, reverse=True)
    below.pop()
    return tuple((v, adj[v][list(map(depth.__getitem__, adj[v])).index(depth[v] - 1)]) for v in below)


def _pass(
    steps: tuple[tuple[int, int], ...], root: int, vec: tuple[int, ...], keep: tuple[int, ...]
) -> Optional[list[int]]:
    """The balances of vec in the pass over steps, the _bfs_steps from
    root, that keeps keep[v] pebbles on every vertex v, or None when the
    pass fails.

    The pass visits the vertices leaves first, each with its parent.  A
    vertex's balance is its own pebbles plus what its children's
    subtrees pass up, minus the pebbles it keeps: b(v) = vec[v] +
    sum_children phi(b(u)) - keep[v], where phi(b) is b // 2 for b >= 0
    and 2b for b < 0, so a surplus s passes s // 2 up and a shortfall d
    costs the parent 2d.  The pass succeeds iff b(root) >= 0.

    A cover solution needs no cycle of moves (Milans and Clark, 2006),
    so on a tree each edge carries pebbles one way only and the pass
    decides exactly, in time linear in the order.  On a graph with
    cycles a pass that succeeds is a cover solution that moves pebbles
    along tree edges only (_pass_moves lists them), so "solvable" is
    sound and "unsolvable" proves nothing.
    """
    bal = list(map(sub, vec, keep))
    for v, p in steps:
        b = bal[v]
        bal[p] += b >> 1 if b >= 0 else 2 * b
    return bal if bal[root] >= 0 else None


def _pass_moves(
    steps: tuple[tuple[int, int], ...], vec: tuple[int, ...], keep: tuple[int, ...], bal: list[int]
) -> list[PebblingMove]:
    """The moves of a pass that succeeded, which leave at least keep[v]
    pebbles on every vertex v; bal is what _pass returned for steps, vec
    and keep, and b(v) below is bal[v].

    Top-down, each vertex v asks its surplus children (b(u) >= 0), each
    for at most b(u) // 2, for what it lacks: keep[v] + 2 * (what v
    sends up) + 2 * sum_{deficit children} (-b(u)) - vec[v].  A surplus
    v sends up at most b(v) // 2, and b(v) counts its offers less that
    lack without the sends, so the offers cover it.  A deficit v sends
    nothing up and b(v) < 0 says its lack exceeds the offers, so it
    takes every offer, and the -b(v) pebbles its parent sends down make
    up the rest.

    The moves are the requested sends, leaves first, each as u -> parent,
    then the deficits, root first, each as -b(u) moves parent -> u.  Each
    step keeps enough pebbles for the next.  When u sends up, every
    child of u has sent, so u holds vec[u] plus what it asked, which
    covers its sends and everything it still owes: keep[u], twice its
    deficit children's shortfalls.  A deficit u sends nothing up.  When v
    fills a deficit child, v's own deficit was filled before, since its
    parent comes earlier in root-first order, so v holds its keep plus
    twice its deficit children's shortfalls.  Every move replays and
    every vertex ends with at least keep[v].  A vector that already
    meets keep asks nothing and gets no moves.

    Each send and each deficit fill is one run: a single PebblingMove
    repeated, so the list holds one object per run, not one per move.
    No two runs are equal and adjacent, since u -> p and p' -> u' are
    equal only when each is the other's parent.
    """
    lack = [k - c for k, c in zip(keep, vec)]
    for u, p in steps:
        if bal[u] < 0:
            lack[p] -= 2 * bal[u]
    sent = [0] * len(vec)
    for u, p in reversed(steps):
        if bal[u] >= 2 and lack[p] > 0:
            sent[u] = give = min(lack[p], bal[u] >> 1)
            lack[p] -= give
            lack[u] += 2 * give
    moves = []
    for u, p in steps:
        if sent[u]:
            moves += [PebblingMove(u, p)] * sent[u]
    for u, p in reversed(steps):
        if bal[u] < 0:
            moves += [PebblingMove(p, u)] * -bal[u]
    return moves


def _up(row, bal: int, m: int) -> list[int]:
    """What a vertex passes its parent, phi(b - 1) as in _pass, for each
    of the first m entries b of its row plus bal."""
    c = bal - 1
    return [t >> 1 if t >= 0 else 2 * t for t in map(c.__add__, row[:m])]


def _join(acc, up: list[int], free: range):
    """The min-plus convolution acc (+) up on len(up) entries: entry j is
    the least acc[j - i] + up[i] over i <= j.  acc is None, the identity;
    free, the row j -> j, joined by a running minimum: entry j is j + min
    over i <= j of up[i] - i; or a row at least as long as up, joined
    entry by entry, one C-level min over a slice each."""
    if acc is None:
        return up
    if acc is free:
        return list(map(add, accumulate(map(sub, up, free), min), free))
    last = len(up) - 1
    rev = acc[last::-1]
    return [min(map(add, rev[s:], up)) for s in range(last, -1, -1)]


def _dp_plan(steps: tuple[tuple[int, int], ...], root: int, shared: tuple) -> tuple[tuple, int]:
    """The plan of every DP from root (SolveMemo._below) over steps, the
    _bfs_steps from root, and the entries of the rows it keeps.

    In the DP from root the vertices above root are held and those below
    it free.  Row entry j of a vertex is the least balance that any
    placement of j spare pebbles in its subtree leaves at it, as in
    _pass: a min-plus DP, leaves first, each child joining its parent's
    row by min-plus convolution (_join) after phi(b - 1) (_up).  phi is
    nondecreasing and the subtrees are disjoint, so the least sum is the
    sum of the least terms.  Entry j does not depend on the spare past
    j, so rows built at the top serve every smaller spare.

    - ``ints``: the steps of the held-only subtrees, which take no spare
      pebble and have one balance each.
    - ``fixed``: per mixed vertex and the root, its own row (free, j ->
      j, for a free vertex) joined here with the up rows of its
      free-only children, which depend on the spare alone.  The plan
      keeps those that a child of two or more vertices joins.
    - ``mixed``: the steps of the vertices with held and free vertices
      in their subtrees, which each DP runs.
    - ``offsets``: 2 - 2k per mixed vertex or root with k > 1 free
      leaves as children, from the rule below.

    A free leaf is a free vertex with no child.  Once its parent has
    joined one free leaf, a free leaf joins as a held leaf with 0
    pebbles, passing up -2.  This changes no entry.  Write free_up[i] =
    phi(i - 1): -2 at i = 0, then (i - 1) // 2.  For 1 <= i < j, (i - 1)
    // 2 + (j - i - 1) // 2 >= j/2 - 2 > (j - 1) // 2 - 2, so the least
    sum piles every pebble on one leaf, and free_up (+) free_up = free_up
    - 2, with (+) the min-plus convolution.  That is associative and
    commutative, so acc (+) free_up (+) free_up = (acc (+) free_up) - 2
    for any row acc.  ``shared`` holds free, free_up and free (+)
    free_up at the top, so a fixed row of leaves alone keeps nothing.
    """
    free, free_up, free_pair = shared
    n = len(steps) + 1
    has_free = [True] * root + [False] * (n - root)
    has_held = [False] * (root + 1) + [True] * (n - root - 1)
    for u, p in steps:
        has_free[p] |= has_free[u]
        has_held[p] |= has_held[u]
    leaves = [0] * n
    # per vertex, the up rows of its free-only children that are not leaves
    ups: dict[int, list] = {}
    fixed = {}
    ints, mixed = [], []

    def fold(u: int):
        acc = free if u < root else None
        if leaves[u]:
            acc = free_pair if acc is free else free_up
        for up in ups.get(u, ()):
            acc = _join(acc, up, free)
        return acc

    for step in steps:
        u, p = step
        if has_held[u]:
            (mixed if has_free[u] else ints).append(step)
        elif leaves[u] or u in ups:
            ups.setdefault(p, []).append(_up(fold(u), min(0, 2 - 2 * leaves[u]), len(free)))
        else:
            leaves[p] += 1
    offsets, kept = [], 0
    for u in chain((u for u, _ in mixed), [root]):
        acc = fold(u)
        if acc is not None:
            fixed[u] = acc
        if leaves[u] > 1:
            offsets.append((u, 2 - 2 * leaves[u]))
        kept += len(free) if u in ups else 0
    return (tuple(ints), tuple(mixed), fixed, tuple(offsets)), kept


def check_threshold_size(g: Graph, top: int) -> None:
    """Raise InvalidSpec unless a threshold check on g can run at sizes
    up to top.

    Refused: a negative top, by check_int; on a graph with cycles, more
    than sys.maxsize configurations of size top, since the search may see
    any of them; on any graph, n rows of top + 1 entries, g.n * (top +
    1), past MAX_ROW_ENTRIES.  That bounds the rows a memo's DP plans
    keep (SolveMemo._below), and those one DP builds besides.
    """
    check_int(top, "size")
    if len(g.edges) >= g.n:
        total = composition_count(g.n, top)
        if total > sys.maxsize:
            raise InvalidSpec(f"{total} configurations of size {top} on {g.n} vertices are too many to scan")
    if g.n * (top + 1) > MAX_ROW_ENTRIES:
        raise InvalidSpec(
            f"a check at size {top} on {g.n} vertices needs DP rows of more than {MAX_ROW_ENTRIES} entries"
        )


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

    That order compares the last vertex first, so the vertices are fixed
    from the last down, each through its counts in ascending order, and
    vertex 0 takes what is left.  At each prefix one DP over the BFS tree
    from the vertex v being fixed, with the vertices above v held and
    those below free (SolveMemo._below), shows for every count x of v at
    once whether the pass covers all completions: x + below[spare - x]
    >= 1.  Only the counts it cannot certify are tried.  Since the held
    set depends on v alone, the memo plans each root's DPs once, at the
    size of the check, and runs only the parts the held counts change.  A full vector then meets three tests in
    turn, each a memo step: the passes that solve tries, each keeping one
    pebble on every vertex, certify it (SolveMemo._passing); failing
    those, on a graph with cycles, its stack potentials refute it
    (SolveMemo._refutes); only a vector neither certified nor refuted
    goes to the memo's search.  On a tree the pass is exact from any
    root, so the one from root 0 decides a full vector, and neither the
    refutation nor the search runs.

    On a graph with cycles only twin-sorted vectors are tried: within
    each twin class (SolveMemo._twin_above) the counts do not increase
    with the index, so v tries counts from held[the next twin above v]
    up, and vertex 0 takes what is left only if that meets its floor.
    A tree needs no floors: there every count left uncertified has a
    completion that fails, so the scan never backtracks and meets no
    vector before the witness.

    Swapping two twins is an automorphism, so it keeps a vector's
    solvability.  Let w be the colex-first unsolvable vector and u < v
    twins; w with their counts swapped is unsolvable and agrees with w
    above v, so were w(u) < w(v) it would come first.  Hence w(u) >=
    w(v), the scan tries w, and it meets w first among the vectors it
    tries: the witness is the same as a scan of every vector finds.  At
    a size with no unsolvable vector nothing is missed either: sorting
    each class's counts is a chain of twin swaps, so every vector is the
    image of a twin-sorted one, which a DP certifies or the scan tries,
    and is as solvable as it.  This is the lex-leader rule of symmetry
    breaking (Crawford, Ginsberg, Luks and Roy, 1996).

    A k that check_threshold_size refuses raises InvalidSpec before any
    table is built or the memo is bound.  Otherwise the given memo, or a
    fresh one, is bound to g, one pebble kept per vertex and pruning on,
    on a tree too, so one bound to another graph raises InvalidSpec.  It
    holds the BFS trees, the DP plans, the twin table, the potential
    rows and the search's tables, so calls sharing it, as gamma_exact's
    two sizes do, build them once; a larger k plans the DPs again.

    configs_checked is the witness's colex rank plus one, or the full
    count when the size is good, as a scan of every vector in that order
    would report.  It is not the number of vectors visited, which the
    DPs and the twin floors keep to a small share of it.

    worker_count is ignored.  It remains only because the benchmark's
    two-thread scan probe passes it, and goes with that probe.
    """
    check_threshold_size(g, k)
    n = g.n
    memo = memo if memo is not None else SolveMemo()
    memo.bind(g, (1,) * n, True)
    memo._size_plans(k)
    # the counts held so far, 0 at and below the vertex being fixed, and
    # at n a 0 that stands for the floor of a vertex with no twin above
    held = [0] * (n + 1)
    above = [n if t is None else t for t in ([None] * n if memo._is_tree else memo._twin_above())]

    def uncertified(v: int, spare: int) -> list[int]:
        # counts of v, largest first, down to its floor, the count of its
        # next twin above (0 without one), with a completion the pass
        # from v fails
        floor = held[above[v]]
        if floor > spare:
            return []
        if not v:
            return [spare]
        # v takes at least its floor, so the vertices below take at most
        # spare - floor, and the DP rows stop there
        below = memo._below(v, held, spare - floor)
        return [x for x in range(spare, floor - 1, -1) if x + below[spare - x] < 1]

    # frames (v, pebbles left for v and below, counts of v to try); an
    # explicit stack, since recursion would overflow on large graphs
    stack = [(n - 1, k, uncertified(n - 1, k))]
    while stack:
        v, spare, counts = stack[-1]
        if not counts:
            stack.pop()
            held[v] = 0
            continue
        held[v] = x = counts.pop()
        if v:
            stack.append((v - 1, spare - x, uncertified(v - 1, spare - x)))
            continue
        vec = tuple(held[:n])
        if memo._passing(vec) is not None:
            continue
        if memo._is_tree or memo._refutes(vec) or not memo._decide(vec)[0]:
            return ThresholdResult(Configuration(vec), _colex_rank(vec) + 1)
    return ThresholdResult(None, composition_count(n, k))


def gamma_exact(g: Graph) -> GammaResult:
    """Exact cover pebbling number by two threshold checks.

    The worst stack cost L is a lower bound, and the cover pebbling
    theorem (Sjostrand, 2005) says it is the answer.  So every
    configuration of size L must be solvable and some configuration of
    size L - 1 must not; either surprise raises InternalAssertion.  The
    witness is the colexicographically first unsolvable configuration of
    size L - 1, and configs_checked sums the counts of both checks.  The
    two checks are verify_threshold calls sharing one memo, which holds
    the BFS trees, the DP plans, the potential rows and the search's
    tables; the size L - 1 check runs on the plans the size L check
    built.  On a tree neither size reaches the memo's search.
    """
    k = bound_report(g).lower_stacked
    memo = SolveMemo()
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
