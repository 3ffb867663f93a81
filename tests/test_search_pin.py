"""Pins the exhaustive search itself, not only its answers.

Each case records, for one cold search with a fresh memo, the number of
states expanded, the size of the memo afterwards and the winning
moves.  The cases call the memo's search directly: solve answers most
of them by a spanning-tree pass before the search runs.  Any change to
the move order, the pruning or the memo writes moves at least one of
these literals, even when every answer stays right.  A change that
means to alter the search must update them on purpose.  The pruning
verdict, the counts each frame carries and the move order of every
state the search expands, whole searches and every budget stop are
compared with ReferenceSearch, the tuple search the packed kernel
replaced: the first three on every small graph, whole searches on the
benchmark's graph families and on memos shared across field widths,
and budget stops on three pinned cases.
"""

import itertools
import random

import pytest
from util import ReferenceSearch, bound_memo, random_config, small_catalog

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
    Configuration,
    Fuse,
    Multipartite,
    SolveMemo,
    ThresholdResult,
    Wheel,
    build_graph,
    generate,
    solve,
    verify_threshold,
)

W6 = generate(Wheel(6))
W7 = generate(Wheel(7))
F73 = generate(Fuse(7, 3))
K43 = generate(Multipartite((4, 3)))
K322 = generate(Multipartite((3, 2, 2)))
B = BinaryWeighting((1, 0, 1, 1, 0, 1, 0))

# the worst stack of wheel 6 sits on rim vertex 1 (L = 19), that of
# fuse(7,3) on the free path end 0 (L = 39); the stacks run L-2 .. L+1
W6_19 = [(1, 0), (1, 2), (1, 6), (1, 0), (1, 0), (1, 0), (1, 0), (0, 3), (1, 0), (0, 4),
         (1, 0), (0, 5)]
W6_20 = [(1, 0), (1, 2), (1, 6), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (0, 3), (0, 4),
         (1, 0), (0, 5)]
F73_39 = [(0, 1)] * 13 + [(1, 2), (0, 1), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1), (1, 2),
                          (0, 1), (1, 2), (2, 3), (1, 2), (2, 4), (0, 1), (1, 2), (2, 5),
                          (0, 1), (1, 2), (2, 6)]
F73_40 = [(0, 1)] * 14 + [(1, 2), (1, 2), (0, 1), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1),
                          (1, 2), (2, 3), (0, 1), (1, 2), (2, 4), (1, 2), (2, 5), (0, 1),
                          (1, 2), (2, 6)]

CASES = [
    # graph, counts, weighting, states explored, memo entries, moves (None: unsolvable)
    (W6, (0, 17, 0, 0, 0, 0, 0), None, 584, 584, None),
    (W6, (0, 18, 0, 0, 0, 0, 0), None, 1119, 1119, None),
    (W6, (0, 19, 0, 0, 0, 0, 0), None, 13, 13, W6_19),
    (W6, (0, 20, 0, 0, 0, 0, 0), None, 13, 13, W6_20),
    (F73, (37, 0, 0, 0, 0, 0, 0), None, 2698, 2698, None),
    (F73, (38, 0, 0, 0, 0, 0, 0), None, 3013, 3013, None),
    (F73, (39, 0, 0, 0, 0, 0, 0), None, 33, 33, F73_39),
    (F73, (40, 0, 0, 0, 0, 0, 0), None, 33, 33, F73_40),
    (K322, (0, 6, 2, 1, 0, 2, 2), None, 1190, 1190, [(1, 4), (1, 5), (5, 0)]),
    (K322, (2, 2, 2, 2, 0, 0, 4), None, 1933, 1933, None),
    (K322, (1, 1, 2, 0, 3, 2, 1), B, 617, 617, [(4, 1), (1, 3)]),
    (K322, (0, 1, 2, 2, 1, 2, 1), B, 695, 695, None),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_search_trace_is_pinned(case):
    g, counts, b, states, entries, moves = CASES[case]
    memo = bound_memo(g, None if b is None else b.marks)
    solvable, explored = memo._decide(counts)
    assert explored == states
    assert len(memo.win) + len(memo.fail) == entries
    assert solvable == (moves is not None)
    if moves is not None:
        assert memo._winning_moves(counts) == moves


def test_budget_stop_is_pinned():
    memo = SolveMemo()
    with pytest.raises(BudgetExceeded) as info:
        solve(W6, Configuration((0, 17, 0, 0, 0, 0, 0)), memo=memo, budget=200)
    assert info.value.states == 201
    assert len(memo.win) + len(memo.fail) == 193


@pytest.mark.parametrize("case", [0, 9, 10], ids=["W6-17", "K322", "K322-weighted"])
def test_every_budget_stops_where_the_reference_does(case):
    # from a budget of 0 up to the whole search, a stop reports the
    # visit past the budget and leaves the entries the reference has
    # written before that visit; the whole budget lets the search finish
    g, counts, b, states, *_ = CASES[case]
    keep = (1,) * g.n if b is None else b.marks
    ref = ReferenceSearch(g, keep)
    assert trace(ref, counts)[1] == states
    log = ref.entries
    # the log agrees with a reference stopped halfway
    _, stop, wins, fails, _ = trace(ReferenceSearch(g, keep), counts, states // 2)
    assert (stop, wins + fails) == (states // 2 + 1, log[states // 2])
    for budget in range(states):
        memo = bound_memo(g, keep)
        with pytest.raises(BudgetExceeded) as info:
            memo._decide(counts, budget)
        assert (info.value.states, len(memo.win) + len(memo.fail)) == (budget + 1, log[budget]), budget
    assert trace(bound_memo(g, keep), counts, states) == trace(ReferenceSearch(g, keep), counts)


@pytest.mark.parametrize("case", [0, 2], ids=["unsolvable", "solvable"])
def test_a_decided_root_costs_one_state(case):
    # a shared memo answers a root it has decided at its first visit,
    # which a budget of 0 still stops
    g, counts, *_ = CASES[case]
    memo = bound_memo(g)
    solvable = memo._decide(counts)[0]
    entries = len(memo.win) + len(memo.fail)
    assert memo._decide(counts) == (solvable, 1)
    with pytest.raises(BudgetExceeded) as info:
        memo._decide(counts, 0)
    assert info.value.states == 1
    assert len(memo.win) + len(memo.fail) == entries


def recorded_expansions(memo, ref):
    """Lists that fill, as the searches run, with (counts, moves) of each
    state that memo's _decide expands, through its own _expand, and that
    ref expands; each memo move's steps are checked against the packed
    child on the way."""
    got, want = [], []

    def expand(counts, covered):
        moves = list(real(counts, covered))
        parent = tuple(counts)
        for _, step, drop, move in moves:
            child = ReferenceSearch._apply(parent, move)
            assert step == memo._pack(child) - memo._pack(parent), (parent, move)
            assert drop == memo._potential(child) - memo._potential(parent), (parent, move)
        got.append((parent, [move for *_, move in moves]))
        return iter(moves)

    def ordered_moves(state):
        moves = ordered(state)
        want.append((state, moves))
        return moves

    real, ordered = memo._expand, ref._ordered_moves
    memo._expand, ref._ordered_moves = expand, ordered_moves
    return got, want


def test_move_order_and_pruning_match_the_reference():
    # _decide expands a sampled state exactly when it neither covers the
    # targets nor is pruned, so the root of each search shows the prune
    # verdict that _decide itself reaches on it; and every state the
    # search expands, with the counts its frame carries and the moves in
    # the order they are tried, is one ReferenceSearch expands, in the
    # same order and with the same moves
    rng = random.Random(7)
    checked, expanded, verdicts = 0, 0, set()
    for g in small_catalog(4):
        for marks in itertools.product((0, 1), repeat=g.n):
            for _ in range(12):
                state = random_config(rng, g.n, rng.randint(0, 9)).counts
                memo, ref = bound_memo(g, marks), ReferenceSearch(g, marks)
                got, want = recorded_expansions(memo, ref)
                assert memo._decide(state)[0] == ref.decide(state)[0]
                covers = all(state[t] for t in ref.marked)
                verdict = "covers" if covers else "pruned" if ref._prunable(state) else "expanded"
                assert bool(got) == (verdict == "expanded"), (g.edges, marks, state)
                assert got == want, (g.edges, marks, state)
                verdicts.add(verdict)
                checked += 1
                expanded += len(got)
    assert verdicts == {"covers", "pruned", "expanded"}
    assert checked > 5000 and expanded > 3000


def trace(search, counts, budget=None):
    """(solvable, states, win entries, fail entries, win chain) of one
    decide on a bound SolveMemo or a ReferenceSearch; a budget stop
    gives the states at the stop and no chain."""
    if isinstance(search, SolveMemo):
        decide, chain_of = search._decide, search._winning_moves
    else:
        decide, chain_of = search.decide, search.winning_moves
    try:
        solvable, states = decide(counts, budget)
    except BudgetExceeded as stop:
        solvable, states = "stopped", stop.states
    chain = chain_of(counts) if solvable is True else None
    return solvable, states, len(search.win), len(search.fail), chain


def stack_inputs(rng, g, keep):
    """Stacks of L - 2 .. L + 1 pebbles on a worst-stack vertex toward the
    targets, L their worst stack cost, each plus 0 .. 3 pebbles
    scattered at random."""
    costs = [sum(1 << g.dist[u][v] for u, k in enumerate(keep) if k) for v in range(g.n)]
    top = max(costs)
    out = []
    for k in range(top - 2, top + 2):
        counts = [0] * g.n
        counts[rng.choice([v for v, cost in enumerate(costs) if cost == top])] = k
        for _ in range(rng.randrange(4)):
            counts[rng.randrange(g.n)] += 1
        out.append(tuple(counts))
    return out


@pytest.mark.parametrize("g", [W6, W7, K43, K322, F73], ids=["W6", "W7", "K43", "K322", "F73"])
def test_decide_matches_the_reference_search(g):
    rng = random.Random(g.n * 100 + len(g.edges))
    for weighted in (False, True):
        keep = (1,) * g.n
        while weighted and keep in ((1,) * g.n, (0,) * g.n):
            keep = tuple(rng.randint(0, 1) for _ in range(g.n))
        for counts in stack_inputs(rng, g, keep):
            got = trace(bound_memo(g, keep), counts)
            assert got == trace(ReferenceSearch(g, keep), counts), (keep, counts)
    # one budget stop: the stack two short of the worst cost, cut off
    # after a tenth of the states its refutation takes
    ones = (1,) * g.n
    counts = min(stack_inputs(random.Random(0), g, ones), key=sum)
    states = ReferenceSearch(g, ones).decide(counts)[1]
    got = trace(bound_memo(g, ones), counts, states // 10)
    assert got[0] == "stopped"
    assert got == trace(ReferenceSearch(g, ones), counts, states // 10)


@pytest.mark.parametrize("sizes", [(6, 17, 40), (40, 17, 6)], ids=["widening", "narrowing"])
def test_a_memo_shared_across_widths_matches_the_reference(sizes):
    # at each size, the stack on rim vertex 1 and a scattered vector, all
    # on one memo, each also answered as with a fresh memo; W = (size << diam).bit_length() + 1 is 6 at size 6, 8
    # at 17 and 9 at 40, and a memo that needs a wider W empties its
    # entries first, so the reference starts afresh whenever W grows; W
    # never narrows
    rng = random.Random(3)
    ones = (1,) * W6.n
    memo = bound_memo(W6, ones)
    widths = [0]
    for k in sizes:
        for counts in ((0, k, 0, 0, 0, 0, 0), random_config(rng, W6.n, k).counts):
            got = trace(memo, counts)
            if memo._width != widths[-1]:
                ref = ReferenceSearch(W6, ones)
            assert got == trace(ref, counts), counts
            assert got[0] == bound_memo(W6, ones)._decide(counts)[0], counts
            widths.append(memo._width)
    assert widths[1:] == ([6, 6, 8, 8, 9, 9] if sizes[0] == 6 else [9] * 6)


def test_a_threshold_memo_starts_afresh_at_a_wider_width():
    # a hub joined to five vertices, with four more edges among them and
    # no twins, so twin floors skip no vector: diameter 2, so W is 7 at
    # size 15 and 8 at 16, and both checks end at an unsolvable vector
    # the potentials refute, after searches that leave fail entries
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5)])
    assert bound_memo(g)._twin_above() == [None] * 6
    first_answer = ThresholdResult(Configuration((1, 0, 0, 0, 14, 0)), 3872)
    second_answer = ThresholdResult(Configuration((0, 0, 0, 0, 16, 0)), 4845)
    memo = SolveMemo()
    first = verify_threshold(g, 15, memo=memo)
    width, first_fails = memo._width, len(memo.fail)
    second = verify_threshold(g, 16, memo=memo)
    assert (width, memo._width, first_fails) == (7, 8, 82)
    assert first == verify_threshold(g, 15, memo=SolveMemo()) == first_answer
    fresh = SolveMemo()
    assert second == verify_threshold(g, 16, memo=fresh) == second_answer
    # the wider W emptied the memo, so it holds what the fresh one does
    assert (memo.fail, memo.win, len(memo.fail), len(memo.win)) == (fresh.fail, fresh.win, 71, 43)
    # every entry is the right answer for its vector
    assert memo.fail and memo.win
    ref = ReferenceSearch(g, (1,) * g.n)
    mask = (1 << memo._width) - 1
    for key in [*memo.fail, *memo.win]:
        counts = tuple(key >> (memo._width * v) & mask for v in range(g.n))
        assert ref.decide(counts)[0] == (key in memo.win), counts
    # two adjacent hubs joined to four more vertices, two of them
    # adjacent: twins 0 and 1, 2 and 3, and 4 and 5, so its checks leave
    # the search little to do, but their answers stand
    twins = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    assert (verify_threshold(twins, 15), verify_threshold(twins, 16)) == (first_answer, second_answer)


def test_solves_sharing_a_memo_at_one_width_build_the_tables_once(monkeypatch):
    # on wheel 6 (diameter 2) W is 8 at sizes 16 to 18; a solve that a
    # tree pass answers builds nothing, and a search at a width the memo
    # already holds reuses its tables
    built = []
    real = SolveMemo._build

    def counted(self, w):
        built.append(w)
        real(self, w)

    monkeypatch.setattr(SolveMemo, "_build", counted)
    memo = SolveMemo()
    assert solve(W6, Configuration((1,) * 7), memo=memo).states_explored == 0
    assert (built, memo._width) == ([], 0)
    for k in (17, 18, 16):
        assert solve(W6, Configuration((0, k, 0, 0, 0, 0, 0)), memo=memo).states_explored > 0
    assert built == [8]


def test_near_rows_match_the_distance_formula():
    # _build's rows, from BFS rings, against 2**(diam - d(v, t)) at field
    # t for every target t: every labelled graph of order <= 4 under
    # every keep vector, then wheel 50 and fuse(7,3) (diameter 5) under a
    # random weighting
    rng = random.Random(11)
    cases = [(g, marks) for g in small_catalog(4) for marks in itertools.product((0, 1), repeat=g.n)]
    for g in (generate(Wheel(50)), F73):
        cases.append((g, tuple(rng.randint(0, 1) for _ in range(g.n))))
    for g, marks in cases:
        memo = bound_memo(g, marks)
        memo._fit(g.n)
        shifts = memo.shifts
        want = [sum((1 << (g.diam - g.dist[v][t])) << shifts[t] for t in memo.marked) for v in range(g.n)]
        assert memo.near_rows == want, (g.edges, marks)


@pytest.mark.parametrize(
    "g, keep, counts, answer",
    [
        (W6, (0,) * 7, (0, 0, 0, 0, 0, 0, 0), (True, 1)),
        (W6, (0,) * 7, (0, 5, 0, 0, 0, 0, 1), (True, 1)),
        (build_graph(1, []), (1,), (0,), (False, 1)),
        (build_graph(1, []), (1,), (3,), (True, 1)),
        (build_graph(1, []), (0,), (0,), (True, 1)),
    ],
    ids=["no-targets-empty", "no-targets", "order1-empty", "order1", "order1-no-targets"],
)
def test_edge_searches_match_the_reference(g, keep, counts, answer):
    for pruning in (True, False):
        got = trace(bound_memo(g, keep, pruning), counts)
        assert got == trace(ReferenceSearch(g, keep, pruning), counts)
        assert got[:2] == answer
