"""Pins the exhaustive search itself, not only its answers.

Each case records, for one cold search with a fresh memo, the number of
states expanded, the size of the memo afterwards and the winning
moves.  The cases call the search directly: solve answers most of them
by a spanning-tree pass before the search runs.  Any change to the move
order, the pruning or the memo writes moves at least one of these
literals, even when every answer stays right.  A change that means to
alter the search must update them on purpose.  The search's move order
and pruning test are also compared, state by state, with plain
reference versions on every small graph.
"""

import itertools
import random

import pytest
from util import random_config, small_catalog

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
    Configuration,
    Fuse,
    Multipartite,
    SolveMemo,
    Wheel,
    exact,
    generate,
    solve,
)

W6 = generate(Wheel(6))
F73 = generate(Fuse(7, 3))
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
    (W6, (0, 17, 0, 0, 0, 0, 0), None, 997, 997, None),
    (W6, (0, 18, 0, 0, 0, 0, 0), None, 1770, 1770, None),
    (W6, (0, 19, 0, 0, 0, 0, 0), None, 13, 13, W6_19),
    (W6, (0, 20, 0, 0, 0, 0, 0), None, 13, 13, W6_20),
    (F73, (37, 0, 0, 0, 0, 0, 0), None, 2970, 2970, None),
    (F73, (38, 0, 0, 0, 0, 0, 0), None, 3285, 3285, None),
    (F73, (39, 0, 0, 0, 0, 0, 0), None, 33, 33, F73_39),
    (F73, (40, 0, 0, 0, 0, 0, 0), None, 33, 33, F73_40),
    (K322, (0, 6, 2, 1, 0, 2, 2), None, 2187, 2187, [(1, 4), (1, 5), (5, 0)]),
    (K322, (2, 2, 2, 2, 0, 0, 4), None, 3383, 3383, None),
    (K322, (1, 1, 2, 0, 3, 2, 1), B, 729, 729, [(4, 1), (1, 3)]),
    (K322, (0, 1, 2, 2, 1, 2, 1), B, 818, 818, None),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_search_trace_is_pinned(case):
    g, counts, b, states, entries, moves = CASES[case]
    memo = SolveMemo()
    search = exact._CoverSearch(g, (1,) * g.n if b is None else b.marks, memo=memo)
    solvable, explored = search.decide(counts)
    assert explored == states
    assert len(memo.win) + len(memo.fail) == entries
    assert solvable == (moves is not None)
    if moves is not None:
        assert search.winning_moves(counts) == moves


def test_budget_stop_is_pinned():
    memo = SolveMemo()
    with pytest.raises(BudgetExceeded) as info:
        solve(W6, Configuration((0, 17, 0, 0, 0, 0, 0)), memo=memo, budget=200)
    assert info.value.states == 201
    assert len(memo.win) + len(memo.fail) == 189


def reference_moves(g, marked, state):
    # big piles first, stepping toward the nearest uncovered target,
    # then source and destination index
    uncovered = [t for t in marked if not state[t]]
    ranked = []
    for u, cu in enumerate(state):
        if cu >= 2:
            for x in g.adj[u]:
                near = min(g.dist[x][t] for t in uncovered) if uncovered else 0
                ranked.append((-cu, near, u, x))
    return [(u, x) for _, _, u, x in sorted(ranked)]


def reference_prunable(g, marked, state):
    # too few pebbles for the targets, or some empty target whose
    # weighted total 2**(diam - dist) is below that of one pebble on
    # every target
    if sum(state) < len(marked):
        return True
    for t in marked:
        if not state[t]:
            have = sum(c << (g.diam - g.dist[v][t]) for v, c in enumerate(state))
            demand = sum(1 << (g.diam - g.dist[u][t]) for u in marked)
            if have < demand:
                return True
    return False


def test_move_order_and_pruning_match_the_reference():
    rng = random.Random(7)
    checked = 0
    for g in small_catalog(4):
        for marks in itertools.product((0, 1), repeat=g.n):
            marked = [v for v, m in enumerate(marks) if m]
            search = exact._CoverSearch(g, marks)
            for _ in range(12):
                state = random_config(rng, g.n, rng.randint(0, 9)).counts
                assert search._ordered_moves(state) == reference_moves(g, marked, state)
                assert search._prunable(state) == reference_prunable(g, marked, state)
                checked += 1
    assert checked > 5000
