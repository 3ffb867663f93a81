"""Shared helpers for the test suite: small-graph catalogs, weighting
enumeration, uniform configuration sampling, and three independent
references for the exact layer: a table of solvable vectors, a plain
tuple cover search and the prefix DP run afresh per call; bound memos,
whose search the tests call directly; and references for replay and
the constructive layer: a move-by-move replay, the diameter and
pigeonhole strategies with their nearest pair, donor and path found by
plain minimums and rescans, and the multipartite strategy rebuilding
its pool and threshold every round."""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Optional

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
    Certificate,
    Configuration,
    DiameterStep,
    DiameterTrace,
    Fuse,
    Graph,
    IllegalMoveAt,
    InternalAssertion,
    InvalidSpec,
    Multipartite,
    NotCoveredAtEnd,
    Path,
    PebblingMove,
    PreconditionViolated,
    SolveMemo,
    Star,
    build_graph,
    diameter_bound,
    gamma_multipartite,
    generate,
    is_covered,
    is_permissible,
    weighted_cover_bound,
)
from coverpebble import constructive
from coverpebble.constructive import _check_diameter_state, _send_along
from coverpebble.errors import check_int
from coverpebble.graphs import multipartite_edges
from coverpebble.pebbles import check_length


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == cur and b not in reach:
                    reach.add(b)
                    frontier.append(b)
    return len(reach) == n


@lru_cache(maxsize=None)
def connected_edge_sets(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every labeled connected graph on n vertices, as sorted edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if _connected(n, edges):
            out.append(tuple(edges))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(build_graph(n, edges) for edges in connected_edge_sets(n))


@lru_cache(maxsize=None)
def connected_classes(n: int) -> tuple[Graph, ...]:
    """One connected graph on n vertices per isomorphism class: the
    relabelling whose sorted edge tuple is least, in order of that tuple.
    Each class is relabelled once, from its first labelled member."""
    perms = list(itertools.permutations(range(n)))
    seen, canonical = set(), []
    for edges in connected_edge_sets(n):
        if edges not in seen:
            orbit = {tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms}
            seen |= orbit
            canonical.append(min(orbit))
    return tuple(build_graph(n, edges) for edges in sorted(canonical))


def small_catalog(max_n: int = 4) -> list[Graph]:
    """All labeled connected graphs with 1 to max_n vertices."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out


@lru_cache(maxsize=None)
def labeled_trees(n: int) -> tuple[Graph, ...]:
    """All labeled trees on n vertices (connected with n-1 edges)."""
    return tuple(g for g in connected_graphs(n) if len(g.edges) == n - 1)


def tree_representatives() -> list[tuple[str, Graph]]:
    """One representative per isomorphism class of trees on <= 5 vertices."""
    reps = [(f"path[{n}]", generate(Path(n))) for n in range(1, 6)]
    reps.append(("star[3]", generate(Star(3))))
    reps.append(("star[4]", generate(Star(4))))
    reps.append(("spider[5]", generate(Fuse(5, 3))))
    return reps


def order6_tree_representatives() -> list[tuple[str, Graph]]:
    """One representative per isomorphism class of trees on 6 vertices."""
    return [
        ("path[6]", generate(Path(6))),
        ("star[5]", generate(Star(5))),
        ("broom[6]", generate(Fuse(6, 4))),
        ("spider[2,1,1,1]", generate(Fuse(6, 3))),
        ("spider[2,2,1]", build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])),
        ("double-star[2,2]", build_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])),
    ]


def all_weightings(n: int, min_order: int = 0) -> list[BinaryWeighting]:
    out = []
    for marks in itertools.product((0, 1), repeat=n):
        if sum(marks) >= min_order:
            out.append(BinaryWeighting(marks))
    return out


def _composition(cuts, total: int, parts: int) -> tuple[int, ...]:
    # stars and bars: parts - 1 bars at the sorted cuts among
    # total + parts - 1 slots; each part is the run of stars between bars
    ends = (-1, *cuts, total + parts - 1)
    return tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def random_composition(rng, total: int, parts: int) -> tuple[int, ...]:
    """Uniform composition of total into the given number of parts."""
    if parts == 1:
        return (total,)
    return _composition(sorted(rng.sample(range(total + parts - 1), parts - 1)), total, parts)


def solvable_levels(g: Graph, keep: tuple[int, ...], top: int):
    """Yield, for each size k from 0 to top, the set of count vectors of
    size k on g that can end with at least keep[v] pebbles on every
    vertex v.

    Straight from the definition: level k holds the vectors that meet
    keep, and those with one pebbling move into level k - 1.  It uses
    no pass, potential, pruning or theorem, and nothing from
    coverpebble.exact, so it checks them all.  Its gamma is the least
    size whose level holds every vector.
    """
    n = g.n
    moves = [(u, x) for u in range(n) for x in g.adj[u]]
    below: set[tuple[int, ...]] = set()
    for k in range(top + 1):
        level = set()
        for cuts in itertools.combinations(range(k + n - 1), n - 1):
            vec = _composition(cuts, k, n)
            if all(map(operator.ge, vec, keep)):
                level.add(vec)
                continue
            for u, x in moves:
                if vec[u] > 1:
                    nxt = list(vec)
                    nxt[u] -= 2
                    nxt[x] += 1
                    if tuple(nxt) in below:
                        level.add(vec)
                        break
        yield level
        below = level


class ReferenceSearch:
    """The cover search on count tuples, as it stood before the exact
    layer packed each state into one int: the reference whose states,
    memo writes and win chains that kernel must reproduce exactly.

    Depth-first from the given counts.  A state that covers the targets
    (keep[t] = 1), or is in ``win``, wins, and the path to it is written
    to ``win``.  With pruning on, a state is dead when it has fewer
    pebbles than the targets plus its uncovered targets, or when some
    uncovered target t has a near potential sum_v c(v) * 2**(diam -
    d(v, t)) below its value with one pebble on each target.  The moves of a live state are tried in the
    order (-c(u), near(x), u, x), near(x) being the distance from x to
    the nearest uncovered target, skipping children in ``fail``; a state
    whose moves all fail goes to ``fail``.  ``win`` and ``fail`` persist
    across calls, as a shared memo does.  ``entries`` logs, per visit of
    the last decide, len(win) + len(fail) before it, so a stop at budget
    b leaves entries[b] of them.
    """

    def __init__(self, g: Graph, keep: tuple[int, ...], pruning: bool = True):
        self.g = g
        self.marked = [t for t, k in enumerate(keep) if k]
        self.pruning = pruning
        self.win: dict = {}
        self.fail: set = set()
        # per target t: t, its near-potential row over v, and its demand
        self.targets = []
        for t in self.marked:
            row = [1 << (g.diam - g.dist[v][t]) for v in range(g.n)]
            self.targets.append((t, row, sum(row[u] for u in self.marked)))

    def _prunable(self, state) -> bool:
        if sum(state) < len(self.marked) + sum(not state[t] for t in self.marked):
            return True
        return any(not state[t] and sum(map(operator.mul, state, row)) < demand for t, row, demand in self.targets)

    def _ordered_moves(self, state) -> list[tuple[int, int]]:
        g = self.g
        uncovered = [t for t in self.marked if not state[t]]
        ranked = []
        for u, cu in enumerate(state):
            if cu > 1:
                for x in g.adj[u]:
                    near = min(g.dist[x][t] for t in uncovered) if uncovered else 0
                    ranked.append((-cu, near, u, x))
        return [(u, x) for _, _, u, x in sorted(ranked)]

    @staticmethod
    def _apply(state, move):
        u, x = move
        nxt = list(state)
        nxt[u] -= 2
        nxt[x] += 1
        return tuple(nxt)

    def decide(self, counts, budget=None) -> tuple[bool, int]:
        """(solvable, states explored); BudgetExceeded past ``budget``."""
        win, fail = self.win, self.fail
        explored = 0
        self.entries = []
        frames = [[tuple(counts), None, None]]
        while frames:
            frame = frames[-1]
            state = frame[0]
            if frame[1] is None:
                self.entries.append(len(win) + len(fail))
                explored += 1
                if budget is not None and explored > budget:
                    raise BudgetExceeded(explored)
                if state in win or all(state[t] for t in self.marked):
                    win.setdefault(state, None)
                    for parent, child in zip(frames, frames[1:]):
                        win[parent[0]] = child[2]
                    return True, explored
                if state in fail or (self.pruning and self._prunable(state)):
                    fail.add(state)
                    frames.pop()
                    continue
                frame[1] = iter(self._ordered_moves(state))
            for move in frame[1]:
                child = self._apply(state, move)
                if child not in fail:
                    frames.append([child, None, move])
                    break
            else:
                fail.add(state)
                frames.pop()
        return False, explored

    def winning_moves(self, counts) -> list[tuple[int, int]]:
        """The win chain from a configuration decided solvable."""
        moves, state = [], tuple(counts)
        while self.win[state] is not None:
            moves.append(self.win[state])
            state = self._apply(state, moves[-1])
        return moves


def passed_up(steps, root: int, held: dict[int, int], spare: int) -> list[int]:
    """The prefix DP with every row built afresh at spare + 1 entries, no
    plan kept: the reference that SolveMemo._below must match entry for
    entry.

    What the subtrees below root pass up to it, at least, by the pebbles
    they take, in the pass over steps, the _bfs_steps from root.  The
    vertices in held keep their counts; spare pebbles go on root and the
    other vertices.  Entry j is the least sum that root's children pass
    up when the vertices below root take j of the spare pebbles.  A
    min-plus DP over the subtrees, leaves first: each child's row joins
    its parent's by min-plus convolution after phi(b - 1), phi(b) being
    b // 2 for b >= 0 and 2b below.  A subtree with no free vertex keeps
    one balance as a plain int; a free vertex with no child joined yet
    has the row j -> j, joined by a running minimum; once a parent has
    joined one free leaf, another passes up -2.
    """
    free = list(range(spare + 1))
    free_up = [(m - 1) >> 1 if m > 0 else 2 * m - 2 for m in free]
    row: list = [held.get(v, free) for v in range(len(steps) + 1)]
    row[root] = 0
    took_free_leaf = set()
    for v, p in steps:
        bal, acc = row[v], row[p]
        if bal is free:
            if p in took_free_leaf:
                bal = 0
            took_free_leaf.add(p)
        if bal.__class__ is int:
            up = (bal - 1) >> 1 if bal > 0 else 2 * bal - 2
            row[p] = acc + up if acc.__class__ is int else list(map(up.__add__, acc))
            continue
        up = free_up if bal is free else [(m - 1) >> 1 if m > 0 else 2 * m - 2 for m in bal]
        if acc.__class__ is int:
            row[p] = list(map(acc.__add__, up))
        elif acc is free:
            row[p] = list(map(operator.add, itertools.accumulate(map(operator.sub, up, free), min), free))
        else:
            rev = acc[::-1]
            row[p] = [min(map(operator.add, rev[s:], up)) for s in range(spare, -1, -1)]
    top = row[root]
    return top if top.__class__ is list else [top]


def bound_memo(g: Graph, keep: Optional[tuple[int, ...]] = None, pruning: bool = True) -> SolveMemo:
    """A fresh SolveMemo bound to g toward the targets of keep, every
    vertex by default, for tests that call its search directly, since
    solve answers most configurations by a tree pass first."""
    memo = SolveMemo()
    memo.bind(g, (1,) * g.n if keep is None else keep, pruning)
    return memo


def random_tree(rng, n: int) -> Graph:
    """Random labeled tree: each vertex after 0 hangs off an earlier one."""
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_graph(rng, n: int) -> Graph:
    """Random connected graph: a random_tree plus up to n - 1 random
    extra edges, loops dropped and repeats merged."""
    extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n))]
    return build_graph(n, list(random_tree(rng, n).edges) + [(u, v) for u, v in extra if u != v])


def random_config(rng, n: int, size: int) -> Configuration:
    return Configuration(random_composition(rng, size, n))


def move_pairs(cert) -> list[tuple[int, int]]:
    return [(m.src, m.dst) for m in cert.moves]


def replay_moves(g: Graph, cert: Certificate, b: Optional[BinaryWeighting] = None) -> Configuration:
    """validate_certificate move by move, as it was before it replayed
    run by run: the same checks, exceptions and final configuration."""
    check_length(cert.initial.counts, g.n, "certificate start")
    if b is not None:
        check_length(b.marks, g.n, "weighting")
    counts = list(cert.initial.counts)
    checked = object()  # no move is this object, so the first is checked
    for index, move in enumerate(cert.moves):
        # a run repeats one move object: check its type, vertices and edge once
        if move is not checked:
            if not isinstance(move, PebblingMove):
                raise IllegalMoveAt(index, move, "not a PebblingMove")
            src, dst = move.src, move.dst
            try:
                check_int(src, "move source", 0, g.n - 1)
                check_int(dst, "move target", 0, g.n - 1)
            except InvalidSpec:
                raise IllegalMoveAt(index, move, "vertex out of range") from None
            if dst not in g.adj[src]:
                raise IllegalMoveAt(index, move, "vertices share no edge")
            checked = move
        if counts[src] < 2:
            raise IllegalMoveAt(index, move, f"source holds {counts[src]} pebbles")
        counts[src] -= 2
        counts[dst] += 1
    final = Configuration(tuple(counts))
    if not is_covered(final, b):
        targets = range(g.n) if b is None else b.support
        raise NotCoveredAtEnd(v for v in targets if counts[v] == 0)
    return final


def reference_shortest_path(g: Graph, src: int, dst: int) -> list[int]:
    """shortest_path by a min over the neighbours one step nearer dst,
    each distance read from the neighbour's own row."""
    path = [src]
    cur = src
    while cur != dst:
        cur = min(x for x in g.adj[cur] if g.dist[x][dst] == g.dist[cur][dst] - 1)
        path.append(cur)
    return path


def reference_pigeonhole_sends(g: Graph, b: BinaryWeighting, c: Configuration, moves: list) -> list:
    """The pigeonhole endgame rescanning the targets and the donors from
    the start before each send."""
    check_length(c.counts, g.n, "configuration")
    if not is_permissible(c, b):
        raise PreconditionViolated("configuration has pebbles on unmarked vertices")
    threshold = weighted_cover_bound(b.order, g.diam)
    if c.size < threshold:
        raise PreconditionViolated(f"size {c.size} is below the pigeonhole threshold {threshold}")
    need = (1 << g.diam) + 1
    residual = list(c.counts)
    pending = list(b.support)
    while True:
        target = next((v for v in pending if residual[v] == 0), None)
        if target is None:
            break
        donor = next((v for v in range(g.n) if residual[v] >= need), None)
        if donor is None:
            raise InternalAssertion("no vertex holds enough pebbles for the next empty target")
        _send_along(reference_shortest_path(g, donor, target), g.diam, residual, moves)
        residual[target] = 0
        pending.remove(target)
    return moves


def reference_solve_diameter(g: Graph, c: Configuration) -> tuple[Certificate, DiameterTrace]:
    """solve_diameter with its nearest pair the min over every (gap,
    donor, empty) triple, and the reference endgame and paths."""
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
        gap, src, dst = min((g.dist[r][s], r, s) for r in donors for s in empty)
        if gap > m + 1:
            raise InternalAssertion(f"nearest empty vertex is {gap} away at step {m}, limit {m + 1}")
        quota = 1 << (m + 1)
        snapshot = (tuple(donors), tuple(empty), tuple(settled))
        if counts[src] <= quota:
            settled.append(src)
            steps.append(DiameterStep(m, *snapshot, "retire", src, None, 0, ()))
        else:
            path = reference_shortest_path(g, src, dst)
            _send_along(path, m + 1, counts, moves)
            settled.append(dst)
            steps.append(DiameterStep(m, *snapshot, "send", src, dst, quota, tuple(path)))
    if all(x > 0 for x in counts):
        return Certificate(c, tuple(moves)), DiameterTrace(tuple(steps), None, None)
    weighting = BinaryWeighting(tuple(0 if v in settled else 1 for v in range(n)))
    residual = Configuration(tuple(0 if v in settled else counts[v] for v in range(n)))
    reference_pigeonhole_sends(g, weighting, residual, moves)
    return Certificate(c, tuple(moves)), DiameterTrace(tuple(steps), weighting, residual)


def random_with_diameter(rng, n: int, d: int) -> Graph:
    """A random connected graph of order n > d and diameter d, randomly
    labelled: a path of d edges, each other vertex joined to one inner
    path vertex or to two consecutive ones, and some pairs of vertices
    joined at the same place.  No distance then exceeds d, and vertices
    at one place tie, so the strategies meet ties."""
    place = list(range(d + 1))
    edges = [(i, i + 1) for i in range(d)]
    for v in range(d + 1, n):
        if d >= 3 and rng.random() < 0.3:
            p = rng.randrange(1, d - 1)
            edges += [(p, v), (p + 1, v)]
        else:
            p = rng.randrange(1, d)
            edges.append((p, v))
        place.append(p)
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(range(d + 1, n), 2) if n - d > 2 else (0, 0)
        if u != v and place[u] == place[v]:
            edges.append((u, v))
    labels = list(range(n))
    rng.shuffle(labels)
    g = build_graph(n, [(labels[u], labels[v]) for u, v in edges])
    assert g.diam == d, (n, d, edges)
    return g


def random_piles(rng, n: int, size: int, support) -> Configuration:
    """size pebbles on 1 to len(support) random vertices of support, in
    a uniform composition, so stacks and spread configurations both come."""
    piles = rng.sample(list(support), rng.randint(1, len(support)))
    counts = [0] * n
    for v, k in zip(piles, random_composition(rng, size, len(piles))):
        counts[v] = k
    return Configuration(tuple(counts))


def reference_solve_multipartite(g: Graph, sizes, c: Configuration) -> Certificate:
    """solve_multipartite as it stood with per-round rebuilding: the
    active classes regrouped, held summed over them, the threshold taken
    from gamma_multipartite of their shape, and every choice a scan of
    the active list from its start.  Its moves go through the module's
    _unit_move, so a test that patches that patches both."""
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
        if held < gamma_multipartite(tuple(sorted((len(vs) for vs in groups.values()), reverse=True))):
            raise InternalAssertion("active pool dropped below its cover threshold")
        if len(groups) == 1:
            if len(active) == 1 and counts[active[0]] >= 1:
                break
            raise InternalAssertion("active subgraph collapsed into one class")
        if len(groups) == 2 and min(len(vs) for vs in groups.values()) == 1:
            constructive._star_base(groups, counts, moves)
            break
        small = next((v for v in active if counts[v] in (1, 2)), None)
        if small is not None:
            active.remove(small)
            continue
        empties = [v for v in active if counts[v] == 0]
        if not empties:
            break
        hole = empties[0]
        donor = next((v for v in active if counts[v] > 0 and class_of[v] != class_of[hole]), None)
        if donor is not None:
            constructive._unit_move(donor, hole, counts, moves)
            active.remove(hole)
            continue
        rich = next(v for v in active if counts[v] > 0)
        target = next(v for v in active if class_of[v] != class_of[rich])
        constructive._unit_move(rich, target, counts, moves)
        active.remove(target)
    return Certificate(c, tuple(moves))
