import dataclasses
import itertools
import operator
import random
import sys
import threading
import time

import pytest
from util import (
    all_weightings,
    bound_memo,
    connected_classes,
    labeled_trees,
    move_pairs,
    order6_tree_representatives,
    passed_up,
    random_composition,
    random_tree,
    small_catalog,
    solvable_levels,
    tree_representatives,
)

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
    Certificate,
    Configuration,
    Fuse,
    InternalAssertion,
    InvalidSpec,
    LengthMismatch,
    Multipartite,
    Path,
    SolveMemo,
    Star,
    Wheel,
    bound_report,
    build_graph,
    composition_count,
    exact,
    gamma_exact,
    gamma_multipartite,
    gamma_wheel,
    generate,
    iter_count_vectors,
    solve,
    stack_cost,
    stacked,
    validate_certificate,
    verify_threshold,
)

# the prefix DPs that gamma_exact runs on the labelled graphs of order <= 5
# with a cycle, and on the order-6 classes with a cycle
PREFIX_DPS_TO_ORDER5 = 18_860
PREFIX_DPS_OF_ORDER6 = 27_438

K2 = generate(Multipartite((1, 1)))
P3 = generate(Path(3))
W3 = generate(Wheel(3))


def test_solve_k2_examples():
    out = solve(K2, Configuration((2, 0)))
    assert not out.solvable
    assert out.certificate is None
    assert out.decision == "unsolvable"

    out = solve(K2, Configuration((3, 0)))
    assert out.solvable
    assert move_pairs(out.certificate) == [(0, 1)]
    assert out.decision == "solvable"


def test_solve_wheel_stack_example():
    assert not solve(W3, stacked(W3, 1, 6)).solvable
    assert solve(W3, stacked(W3, 1, 7)).solvable


def test_solve_certificates_replay():
    for counts in itertools.product(range(4), repeat=3):
        out = solve(P3, Configuration(counts))
        if out.solvable:
            final = validate_certificate(P3, out.certificate)
            assert all(x > 0 for x in final.counts)


def test_solve_weighted_targets():
    b = BinaryWeighting((0, 0, 1))
    out = solve(P3, Configuration((4, 0, 0)), b)
    assert out.solvable
    final = validate_certificate(P3, out.certificate, b)
    assert final.counts[2] >= 1
    assert not solve(P3, Configuration((3, 0, 0)), b).solvable


def test_solve_empty_weighting_is_trivial():
    b = BinaryWeighting((0, 0, 0))
    out = solve(P3, Configuration((0, 0, 0)), b)
    assert out.solvable
    assert out.certificate.moves == ()


def test_solve_length_checks():
    with pytest.raises(LengthMismatch):
        solve(P3, Configuration((1, 1)))
    with pytest.raises(LengthMismatch):
        solve(P3, Configuration((1, 1, 1)), BinaryWeighting((1, 1)))


def test_solve_budget():
    # the worst stack one pebble short (L = 15) passes no tree, so it
    # reaches the search, which the budget bounds
    with pytest.raises(BudgetExceeded):
        solve(generate(Wheel(5)), stacked(generate(Wheel(5)), 1, 14), budget=3)
    # a generous budget changes nothing
    out = solve(K2, Configuration((3, 0)), budget=10_000)
    assert out.solvable


def test_a_budget_counts_a_root_the_memo_already_holds():
    # the worst rim stack of wheel 6 two pebbles short (L = 19) is
    # unsolvable; a second solve on the same memo visits only its root,
    # which the budget counts before it reads the memo
    w6 = generate(Wheel(6))
    c = Configuration((0, 17, 0, 0, 0, 0, 0))
    memo = SolveMemo()
    assert solve(w6, c, memo=memo).states_explored == 584
    assert solve(w6, c, memo=memo).states_explored == 1
    with pytest.raises(BudgetExceeded) as info:
        solve(w6, c, memo=memo, budget=0)
    assert info.value.states == 1


def test_solve_rejects_a_negative_budget():
    w4 = generate(Wheel(4))
    c = Configuration((0, 9, 0, 0, 0))
    # a float or bool budget is refused too, not read as a state count
    for budget in (-5, 1.5, True):
        with pytest.raises(InvalidSpec, match="budget must be"):
            solve(w4, c, budget=budget)
    # a zero budget still stops at the first state
    with pytest.raises(BudgetExceeded):
        solve(w4, c, budget=0)


def test_solve_memo_reuse_guard():
    # these answers come from a pass, which writes nothing to the memo
    # but still binds it: another graph, target set or pruning raises
    memo = SolveMemo()
    solve(P3, Configuration((1, 1, 1)), memo=memo)
    solve(P3, Configuration((2, 1, 1)), memo=memo)
    solve(P3, Configuration((2, 1, 1)), BinaryWeighting((1, 1, 1)), memo=memo)
    # the graph is compared by value: P3 built again, its edges listed in
    # another order, is the same graph, and the path 0-2-1, with the same
    # order and edge count, is not
    solve(build_graph(3, [(2, 1), (1, 0)]), Configuration((2, 1, 1)), memo=memo)
    with pytest.raises(InvalidSpec):
        solve(build_graph(3, [(0, 2), (2, 1)]), Configuration((2, 1, 1)), memo=memo)
    assert not memo.win and not memo.fail
    for g, c, b, pruning in (
        (K2, Configuration((1, 1)), None, True),
        (P3, Configuration((4, 0, 0)), BinaryWeighting((0, 0, 1)), True),
        (P3, Configuration((4, 0, 0)), None, False),
    ):
        with pytest.raises(ValueError):
            solve(g, c, b, pruning=pruning, memo=memo)


def test_covered_configurations_get_no_moves():
    w4 = generate(Wheel(4))
    for g, c, b in (
        (w4, Configuration((1, 1, 1, 1, 1)), None),
        (w4, Configuration((0, 3, 1, 0, 2)), BinaryWeighting((0, 1, 1, 0, 1))),
        (P3, Configuration((5, 1, 3)), None),
    ):
        out = solve(g, c, b)
        assert out.solvable and out.certificate.moves == () and out.states_explored == 0


def test_a_zero_budget_does_not_stop_a_pass_answer():
    # 9 pebbles on the hub of wheel 4 pass the BFS tree from the hub
    w4 = generate(Wheel(4))
    out = solve(w4, Configuration((9, 0, 0, 0, 0)), budget=0)
    assert out.solvable and out.states_explored == 0
    validate_certificate(w4, out.certificate)


def test_fewer_pebbles_than_targets_skip_every_pass():
    # all 1,000 roots would fail before the search pruned at its first
    # state; the move count answers first
    g = generate(Wheel(999))
    out = solve(g, stacked(g, 0, 10))
    assert not out.solvable and out.states_explored == 0
    b = BinaryWeighting((1, 1, 1) + (0,) * 997)
    assert not solve(g, Configuration((2,) + (0,) * 999), b).solvable


@pytest.mark.parametrize(
    "g, counts, marks",
    [
        (generate(Multipartite((3, 2))), (0, 0, 0, 4, 3), None),
        (generate(Wheel(4)), (0, 6, 0, 0, 0), None),
        (generate(Multipartite((3, 2))), (0, 0, 0, 5, 0), (1, 1, 1, 0, 0)),
    ],
    ids=["K32", "W4", "K32-weighted"],
)
def test_too_few_pebbles_for_the_empty_targets_skip_the_search(g, counts, marks):
    # as many pebbles as targets or more, but fewer than the targets plus
    # the empty ones, each of which needs a move of its own
    memo = SolveMemo()
    out = solve(g, Configuration(counts), None if marks is None else BinaryWeighting(marks), memo=memo)
    assert (out.solvable, out.states_explored) == (False, 0)
    assert not memo.fail and not memo.win


def _stack_bound(g, marked):
    # the weighted cover pebbling theorem (Sjostrand, 2005): the cover
    # number toward the targets is max_v sum_{u in B} 2**d(u, v)
    return max((sum(1 << g.dist[u][v] for u in marked) for v in range(g.n)), default=0)


def _check_solve_against_the_search(g, b, top):
    # on every vector of size up to top, solve's answer equals a search
    # of its own and the solvable-set table, and every certificate
    # replays and covers the targets
    keep = (1,) * g.n if b is None else b.marks
    search = bound_memo(g, keep)
    checked = 0
    for k, level in enumerate(solvable_levels(g, keep, top)):
        for vec in iter_count_vectors(g.n, k):
            out = solve(g, Configuration(vec), b)
            assert out.solvable == search._decide(vec)[0] == (vec in level), (g.edges, b, vec)
            if out.solvable:
                validate_certificate(g, out.certificate, b)
            checked += 1
    return checked


def _every_vector(g, top):
    return (vec for k in range(top + 1) for vec in iter_count_vectors(g.n, k))


def test_solve_agrees_with_the_search_on_every_small_graph():
    checked = 0
    for g in small_catalog(4):
        for b in all_weightings(g.n):
            checked += _check_solve_against_the_search(g, b, _stack_bound(g, b.support) + 1)
    assert checked > 500_000


@pytest.mark.slow
def test_solve_agrees_with_the_search_on_the_order5_classes():
    checked = 0
    for g in connected_classes(5):
        checked += _check_solve_against_the_search(g, None, bound_report(g).lower_stacked + 1)
    assert checked > 1_000_000


def test_the_pass_alone_decides_on_trees():
    # every vertex's stack one short and at the cost toward the targets,
    # and random vectors around that cost; on trees of order 6, one
    # labelled tree in 18.  No state explored means no search ran.
    rng = random.Random(16)
    checked = 0
    for n in range(1, 7):
        trees = labeled_trees(n) if n < 6 else labeled_trees(n)[::18]
        for g in trees:
            weightings = all_weightings(n) if n < 5 else [None]
            if n >= 5:
                weightings += [BinaryWeighting(tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(2)]
            for b in weightings:
                marked = range(n) if b is None else b.support
                top = _stack_bound(g, marked)
                vectors = [stacked(g, v, k).counts for v in range(n) for k in (top - 1, top) if k >= 0]
                vectors += [random_composition(rng, max(k, 0), n) for k in range(top - 3, top + 2) for _ in range(2)]
                search = bound_memo(g, None if b is None else b.marks)
                for vec in vectors:
                    out = solve(g, Configuration(vec), b)
                    assert out.states_explored == 0, (g.edges, b, vec)
                    assert out.solvable == search._decide(vec)[0], (g.edges, b, vec)
                    if out.solvable:
                        validate_certificate(g, out.certificate, b)
                    checked += 1
    assert checked > 17_000


def test_a_stack_one_short_on_a_deep_random_tree_answers_at_once():
    # the search needs more than 300,000 states, about 3 s, to refute
    # this stack; on a tree the pass decides alone
    rng = random.Random(9)
    g = random_tree(rng, 9)
    while g.diam != 6:
        g = random_tree(rng, 9)
    worst = max(range(g.n), key=lambda v: stack_cost(g, v))
    short = stacked(g, worst, stack_cost(g, worst) - 1)
    start = time.perf_counter()
    out = solve(g, short)
    assert time.perf_counter() - start < 0.1
    assert not out.solvable and out.states_explored == 0
    assert solve(g, stacked(g, worst, stack_cost(g, worst))).solvable


def test_the_flow_replays_from_every_passing_root():
    # every root's pass, not only the first one that solve reaches
    cases = [(g, None, 8) for g in small_catalog(4) + list(connected_classes(5))]
    cases += [(g, b, 5) for g in small_catalog(4) for b in all_weightings(g.n)]
    replayed = 0
    for g, b, top in cases:
        keep = b.marks if b is not None else (1,) * g.n
        trees = [exact._bfs_steps(g, root) for root in range(g.n)]
        for vec in _every_vector(g, top):
            start = Configuration(vec)
            for root, steps in enumerate(trees):
                bal = exact._pass(steps, root, vec, keep)
                if bal is None:
                    continue
                cert = Certificate(start, exact._pass_moves(steps, vec, keep, bal))
                final = validate_certificate(g, cert, b).counts
                assert all(map(operator.ge, final, keep)), (g.edges, b, root, vec)
                replayed += 1
    assert replayed > 250_000


# the pass certificates of three worst stacks: wheel 5's on rim vertex 1
# one above L = 19, fuse(7,3)'s on the free path end 0 at L = 39, and
# K(3,2,2)'s toward B on vertex 1 at its cost 12
W5_20 = [(1, 0)] * 9 + [(0, 5), (0, 4), (0, 3), (0, 2)]
F73_39 = [(0, 1)] * 19 + [(1, 2)] * 9 + [(2, 6), (2, 5), (2, 4), (2, 3)]
K322_B = BinaryWeighting((1, 0, 1, 1, 0, 1, 0))
K322_B_12 = [(1, 5)] + [(1, 3)] * 5 + [(3, 2), (3, 0)]
PASS_CASES = [
    (generate(Wheel(5)), (0, 20, 0, 0, 0, 0), None, W5_20),
    (generate(Fuse(7, 3)), (39, 0, 0, 0, 0, 0, 0), None, F73_39),
    (generate(Multipartite((3, 2, 2))), (0, 12, 0, 0, 0, 0, 0), K322_B, K322_B_12),
]


def test_pass_certificates_are_pinned():
    for g, counts, b, moves in PASS_CASES:
        out = solve(g, Configuration(counts), b)
        assert out.states_explored == 0 and move_pairs(out.certificate) == moves, (g.edges, counts)
        validate_certificate(g, out.certificate, b)


def test_a_pass_certificate_holds_one_move_object_per_run():
    # a run repeats one PebblingMove, so a certificate allocates one object
    # per run of equal consecutive moves, not one per move
    cases = [(g, c, b) for g, c, b, _ in PASS_CASES]
    for g in small_catalog(4) + [generate(Wheel(6)), generate(Multipartite((4, 3)))]:
        cases += [(g, stacked(g, v, stack_cost(g, v) + extra).counts, None) for v in range(g.n) for extra in (0, 1)]
    runs = 0
    for g, counts, b in cases:
        out = solve(g, Configuration(counts), b)
        if out.states_explored:
            continue
        moves = out.certificate.moves
        assert len(set(map(id, moves))) == sum(1 for _ in itertools.groupby(moves)), (g.edges, counts)
        runs += len(set(map(id, moves)))
    assert runs > 1000


def _generator_bfs_steps(g, root):
    # an independent reference for _bfs_steps: the same pairs, each parent
    # found by a generator over the vertex's neighbours
    depth = g.dist[root]
    below = sorted((v for v in range(g.n) if v != root), key=depth.__getitem__, reverse=True)
    return tuple((v, next(p for p in g.adj[v] if depth[p] == depth[v] - 1)) for v in below)


def test_bfs_steps_match_the_generator_formula():
    for g in small_catalog(5) + [generate(Wheel(40)), generate(Multipartite((6, 6, 6, 6, 6)))]:
        for root in range(g.n):
            assert exact._bfs_steps(g, root) == _generator_bfs_steps(g, root), (g.edges, root)


def test_enumerate_examples():
    assert list(iter_count_vectors(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert sum(1 for _ in iter_count_vectors(4, 7)) == 120
    assert composition_count(4, 7) == 120
    assert list(iter_count_vectors(1, 5)) == [(5,)]
    assert list(iter_count_vectors(3, 0)) == [(0, 0, 0)]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(InvalidSpec):
        list(iter_count_vectors(0, 2))
    with pytest.raises(InvalidSpec):
        list(iter_count_vectors(2, -1))


def test_enumeration_is_colex_sorted_and_complete():
    for n in range(1, 5):
        for k in range(7):
            vecs = list(iter_count_vectors(n, k))
            assert len(vecs) == composition_count(n, k)
            assert len(set(vecs)) == len(vecs)
            assert all(sum(v) == k and len(v) == n for v in vecs)
            assert vecs == sorted(vecs, key=lambda v: v[::-1])
            assert vecs[0] == (k,) + (0,) * (n - 1)


def _recursive_vectors(n, k):
    # the enumerator the colex successor replaced, kept as a reference
    if n == 1:
        yield (k,)
        return
    for last in range(k + 1):
        for head in _recursive_vectors(n - 1, k - last):
            yield head + (last,)


def test_enumeration_matches_the_recursive_order():
    for n in range(1, 7):
        for k in range(13):
            full = list(_recursive_vectors(n, k))
            assert list(iter_count_vectors(n, k)) == full, (n, k)
            assert len(full) == composition_count(n, k)


def test_verify_threshold_examples():
    assert verify_threshold(W3, 7).ok
    assert verify_threshold(W3, 7).configs_checked == 120

    below = verify_threshold(W3, 6)
    assert not below.ok
    # colex-first witness is the hub stack
    assert below.witness.counts == (6, 0, 0, 0)
    assert below.configs_checked == 1

    assert verify_threshold(K2, 3).ok


def test_verify_threshold_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    # the worker count is ignored
    assert verify_threshold(W3, 6, 8) == exact.ThresholdResult(Configuration((6, 0, 0, 0)), 1)
    assert verify_threshold(W3, 7, 8) == exact.ThresholdResult(None, 120)
    assert gamma_exact(generate(Multipartite((3, 2)))).gamma == gamma_multipartite((3, 2))


def test_verify_threshold_refuses_a_scan_past_sys_maxsize():
    # C(80, 40) and C(95, 20) configurations; 40 pebbles on 41 vertices
    # would be refuted at rank 0, so a missing guard shows without a hang
    for spec, k in ((Wheel(40), 40), (Wheel(20), 75)):
        g = generate(spec)
        assert composition_count(g.n, k) > sys.maxsize
        with pytest.raises(InvalidSpec, match="too many to scan"):
            verify_threshold(g, k)


def test_verify_threshold_refuses_before_building_any_table():
    # wheel 999 has about 1.5e59 configurations at its gamma; the check
    # refuses on the count alone, without a search, BFS steps or memo
    g = generate(Wheel(999))
    k = gamma_wheel(999)
    memo = SolveMemo()
    started = time.perf_counter()
    with pytest.raises(InvalidSpec, match="too many to scan"):
        verify_threshold(g, k, memo=memo)
    assert time.perf_counter() - started < 0.1
    with pytest.raises(InvalidSpec, match="too many to scan"):
        gamma_exact(g)
    # the refused check left the memo unbound
    verify_threshold(P3, 7, memo=memo)


def test_threshold_check_bounds_its_dp_rows():
    # g.n rows of top + 1 entries: path 16 at its L holds 2**20 and is
    # let through; path 17 would hold 17 * 2**17, path 70 about 2**76
    # and star 999 about 4M, so each is refused before any row is built
    path16 = generate(Path(16))
    exact.check_threshold_size(path16, bound_report(path16).lower_stacked)
    refused = [generate(Path(17)), generate(Path(70)), generate(Star(999))]
    sizes = [bound_report(g).lower_stacked for g in refused]
    memo = SolveMemo()
    started = time.perf_counter()
    for g, k in zip(refused, sizes):
        with pytest.raises(InvalidSpec, match="DP rows"):
            verify_threshold(g, k, memo=memo)
    assert time.perf_counter() - started < 0.1
    # the refused checks left the memo unbound
    verify_threshold(P3, 7, memo=memo)


@pytest.mark.slow
def test_trees_below_the_row_bound_still_answer():
    path16 = generate(Path(16))
    assert gamma_exact(path16).gamma == bound_report(path16).upper_diameter == 2**16 - 1
    fuse = generate(Fuse(15, 6))
    assert gamma_exact(fuse).gamma == bound_report(fuse).upper_diameter


def test_star_100_answers_in_seconds():
    # rooted at a leaf, the DP joins 99 free leaves under the centre;
    # after the first, each joins as a shift, not a convolution
    star = generate(Star(100))
    started = time.perf_counter()
    result = gamma_exact(star)
    assert time.perf_counter() - started < 3.0
    assert result.gamma == bound_report(star).upper_diameter == 399


def test_verify_threshold_rejects_a_negative_size():
    # a float or bool size is refused too, before math.comb or range
    # would fail on it with a TypeError
    for g in (P3, W3, generate(Wheel(4))):
        for k in (-1, 3.0, True):
            with pytest.raises(InvalidSpec, match="nonnegative"):
                verify_threshold(g, k)


def test_verify_threshold_shared_memo_speedup_is_consistent():
    memo = SolveMemo()
    first = verify_threshold(P3, 7, memo=memo)
    second = verify_threshold(P3, 7, memo=memo)
    assert first == second
    assert first.ok


def test_gamma_k2():
    result = gamma_exact(K2)
    assert result.gamma == 3
    assert result.witness.counts == (2, 0)
    assert result.witness.size == 2
    assert not solve(K2, result.witness).solvable


def test_gamma_p3():
    result = gamma_exact(P3)
    assert result.gamma == 7
    assert result.witness.size == 6
    assert not solve(P3, result.witness).solvable


def test_gamma_w4():
    result = gamma_exact(generate(Wheel(4)))
    assert result.gamma == 11


@pytest.mark.slow
def test_gamma_matches_the_closed_forms_past_order7():
    cases = [(Wheel(n), gamma_wheel(n)) for n in (7, 8, 9)]
    cases += [(Multipartite(sizes), gamma_multipartite(sizes)) for sizes in ((4, 4), (3, 3, 2), (5, 3))]
    for spec, gamma in cases:
        result = gamma_exact(generate(spec))
        assert result.gamma == gamma, spec
        assert result.witness.size == gamma - 1, spec


def _shift_stack_bound(monkeypatch, delta):
    real = exact.bound_report

    def shifted(g):
        report = real(g)
        return dataclasses.replace(report, lower_stacked=report.lower_stacked + delta)

    monkeypatch.setattr(exact, "bound_report", shifted)


def test_gamma_rejects_a_failing_scan_at_the_stack_bound(monkeypatch):
    # the cover pebbling theorem says the worst stack cost passes, so a
    # failing scan there is an internal error, not a cue to step up
    _shift_stack_bound(monkeypatch, -2)
    with pytest.raises(InternalAssertion, match="at the worst stack cost"):
        gamma_exact(P3)


def test_gamma_rejects_a_passing_size_below_the_stack_bound(monkeypatch):
    _shift_stack_bound(monkeypatch, 1)
    with pytest.raises(InternalAssertion):
        gamma_exact(P3)


def test_the_solvable_set_table_gives_gamma_exact_up_to_order5():
    # the table's gamma, the least size whose level holds every vector,
    # rests on no theorem; the 44 labelled graphs of order <= 4 and the
    # 21 order-5 classes
    graphs = small_catalog(4) + list(connected_classes(5))
    for g in graphs:
        gamma = gamma_exact(g).gamma
        levels = solvable_levels(g, (1,) * g.n, gamma)
        full = [len(level) == composition_count(g.n, k) for k, level in enumerate(levels)]
        assert full.index(True) == gamma, g.edges
    assert len(graphs) == 65


def _first_missing(n, k, level):
    # the colex-first vector of size k not in level, with its rank, or None
    return next(((vec, rank) for rank, vec in enumerate(iter_count_vectors(n, k)) if vec not in level), None)


def test_the_witness_is_the_colex_first_vector_missing_from_the_table():
    # twin floors skip vectors, but never the colex-first unsolvable one:
    # at every size up to L the table, built from the definition alone,
    # misses it first, on the 44 labelled graphs of order <= 4 and the 21
    # order-5 classes; configs_checked counts every vector of a size with
    # none, and the witness's rank plus one
    for g in small_catalog(4) + list(connected_classes(5)):
        result = gamma_exact(g)
        levels = list(solvable_levels(g, (1,) * g.n, result.gamma))
        assert _first_missing(g.n, result.gamma, levels[-1]) is None, g.edges
        witness, rank = _first_missing(g.n, result.gamma - 1, levels[-2])
        checked = composition_count(g.n, result.gamma) + rank + 1
        assert result == exact.GammaResult(result.gamma, Configuration(witness), checked), g.edges
        for k, level in enumerate(levels[:-2]):
            witness, rank = _first_missing(g.n, k, level)
            assert verify_threshold(g, k) == exact.ThresholdResult(Configuration(witness), rank + 1), (g.edges, k)


def _twins_by_definition(g):
    # per vertex v, the least u > v with N(u) - {v} = N(v) - {u}, or None
    nbrs = [set(xs) for xs in g.adj]
    return [next((u for u in range(v + 1, g.n) if nbrs[u] - {v} == nbrs[v] - {u}), None) for v in range(g.n)]


def test_the_twin_table_links_each_vertex_to_its_next_twin():
    cases = [
        # false twins: the parts of K(3,2), the leaves of star 4
        (generate(Multipartite((3, 2))), [1, 2, None, 4, None]),
        (generate(Star(4)), [1, 2, 3, None, None]),
        # true twins: K4; two adjacent hubs joined to four more vertices,
        # two of them adjacent, which are true twins too, and the other
        # two false twins
        (generate(Multipartite((1, 1, 1, 1))), [1, 2, 3, None]),
        (
            build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]),
            [1, None, 3, None, 5, None],
        ),
        # wheel 4's opposite rim vertices
        (generate(Wheel(4)), [None, 3, 4, None, None]),
        # no twins
        (generate(Path(4)), [None] * 4),
        (generate(Wheel(5)), [None] * 6),
    ]
    for g, above in cases:
        assert bound_memo(g)._twin_above() == above, g.edges
    for g in small_catalog(4) + list(connected_classes(5)) + list(connected_classes(6)):
        assert bound_memo(g)._twin_above() == _twins_by_definition(g), g.edges


def test_the_twin_table_is_built_once_at_the_first_threshold_check(monkeypatch):
    # solve never reads it, nor does a check on a tree, whose scan never
    # backtracks; both of gamma_exact's checks share one
    built = []
    real = SolveMemo._twin_above

    def counted(self):
        built.append(self._twins is None)
        return real(self)

    monkeypatch.setattr(SolveMemo, "_twin_above", counted)
    g = generate(Multipartite((3, 2)))
    memo = SolveMemo()
    solve(g, stacked(g, 0, 8), memo=memo)
    assert (built, memo._twins) == ([], None)
    verify_threshold(g, 9, memo=memo)
    verify_threshold(g, 8, memo=memo)
    assert built == [True, False]
    star = generate(Star(4))
    gamma_exact(star)
    memo = SolveMemo()
    verify_threshold(star, 18, memo=memo)
    assert (built, memo._twins) == ([True, False], None)


def test_k55_answers_in_under_a_second():
    # each part of K(5,5) is a class of twins; a scan of every
    # arrangement within each took 18 s
    g = generate(Multipartite((5, 5)))
    started = time.perf_counter()
    result = gamma_exact(g)
    assert time.perf_counter() - started < 1.0
    assert result.gamma == gamma_multipartite((5, 5)) == 27


@pytest.mark.slow
def test_gamma_matches_the_multipartite_closed_form_on_two_parts_to_order14():
    # the 49 K(a, b) with a >= b and a + b <= 14, and K(4,4,4)
    cases = [(a, s - a) for s in range(2, 15) for a in range(s - 1, (s - 1) // 2, -1)] + [(4, 4, 4)]
    assert len(cases) == 50
    for sizes in cases:
        result = gamma_exact(generate(Multipartite(sizes)))
        assert result.gamma == gamma_multipartite(sizes), sizes
        assert result.witness.size == result.gamma - 1, sizes


def test_gamma_single_vertex():
    single = generate(Path(1))
    result = gamma_exact(single)
    assert result.gamma == 1
    assert result.witness.counts == (0,)


def _reference_scan(g, k, memo):
    # decides every configuration with the search of one memo, bound to g
    for rank, vec in enumerate(iter_count_vectors(g.n, k)):
        if not memo._decide(vec)[0]:
            return Configuration(vec), rank + 1
    return None, composition_count(g.n, k)


def test_scan_matches_a_search_of_every_vector():
    # every labelled graph of order <= 4: trees by the DP, the others by
    # tree certificates in front of the search
    results = []
    for g in small_catalog(4):
        memo = bound_memo(g)
        for k in range(2, 9):
            result = verify_threshold(g, k)
            witness, checked = _reference_scan(g, k, memo)
            assert (result.witness, result.configs_checked) == (witness, checked), (g.edges, k)
            results.append(result)
    assert any(not result.ok for result in results)


def _relabelled(spec):
    g = generate(spec)
    relabel = (3, 0, 4, 1, 2)
    return build_graph(5, [(relabel[u], relabel[v]) for u, v in g.edges])


def test_tree_scan_matches_a_scan_of_every_vector():
    # trees answer by the DP; the cyclic graphs scan with the BFS-tree
    # certificates before the search
    cases = tree_representatives() + [
        ("fuse[5,3] relabelled", _relabelled(Fuse(5, 3))),
        ("wheel[4] relabelled", _relabelled(Wheel(4))),
        ("K(3,2) relabelled", _relabelled(Multipartite((3, 2)))),
        ("K(2,2,1) relabelled", _relabelled(Multipartite((2, 2, 1)))),
    ]
    for name, g in cases:
        memo = bound_memo(g)
        gamma = bound_report(g).lower_stacked
        for k in (gamma - 1, gamma):
            witness, checked = _reference_scan(g, k, memo)
            assert (witness is None) == (k == gamma), (name, k)
            result = verify_threshold(g, k)
            assert (result.witness, result.configs_checked) == (witness, checked), (name, k)


def test_tree_scan_still_checks_the_memo_binding():
    memo = SolveMemo()
    verify_threshold(W3, 6, memo=memo)
    # a size that passes and one with a witness
    for k in (7, 4):
        with pytest.raises(ValueError):
            verify_threshold(P3, k, memo=memo)


def test_cycle_scan_and_search_check_the_memo_binding():
    memo = SolveMemo()
    verify_threshold(generate(Multipartite((3, 2))), 9, memo=memo)
    with pytest.raises(InvalidSpec):
        verify_threshold(generate(Wheel(4)), 11, memo=memo)
    # the rim stack one pebble short passes no tree, so it reaches the search
    with pytest.raises(InvalidSpec):
        solve(generate(Wheel(5)), Configuration((0, 14, 0, 0, 0, 0)), memo=memo)


def test_trees_answer_every_size_without_a_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned a tree")

    monkeypatch.setattr(exact, "iter_count_vectors", no_scan)
    for name, g in tree_representatives() + order6_tree_representatives():
        gamma = bound_report(g).lower_stacked
        for k in (gamma, gamma + 1):
            assert verify_threshold(g, k) == exact.ThresholdResult(None, composition_count(g.n, k)), name
        result = verify_threshold(g, gamma - 1)
        assert result.witness.size == gamma - 1, name
        assert exact._pass(exact._bfs_steps(g, 0), 0, result.witness.counts, (1,) * g.n) is None, name


def test_cyclic_graphs_answer_without_a_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned every vector")

    monkeypatch.setattr(exact, "iter_count_vectors", no_scan)
    # the answers a scan of every vector gives, pinned
    cases = [
        (generate(Wheel(5)), 15, (0, 14, 0, 0, 0, 0), 15_519),
        (generate(Multipartite((3, 2, 2))), 17, (16, 0, 0, 0, 0, 0, 0), 100_948),
        (build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]), 47, (0, 0, 0, 0, 0, 46), 4_948_020),
    ]
    for g, gamma, witness, checked in cases:
        assert gamma_exact(g) == exact.GammaResult(gamma, Configuration(witness), checked), g.edges


def _pass_scan(g, k):
    # the first vector of size k that the tree pass fails, by a scan of every vector
    steps, ones = exact._bfs_steps(g, 0), (1,) * g.n
    for rank, vec in enumerate(iter_count_vectors(g.n, k)):
        if exact._pass(steps, 0, vec, ones) is None:
            return Configuration(vec), rank + 1
    return None, composition_count(g.n, k)


def test_tree_witness_matches_a_scan_of_every_vector():
    # the witness depends on the labels, so every labelled tree counts
    checked = 0
    for n in range(1, 6):
        for g in labeled_trees(n):
            gamma = bound_report(g).lower_stacked
            for k in range(gamma + 2) if n <= 4 else (0, 1, 2, gamma - 3, gamma - 2, gamma - 1):
                result = verify_threshold(g, k)
                assert (result.witness, result.configs_checked) == _pass_scan(g, k), (g.edges, k)
                checked += 1
    assert checked == 1041


def test_colex_rank_is_the_position_in_the_enumeration():
    for n in range(1, 5):
        for k in range(7):
            assert [exact._colex_rank(vec) for vec in iter_count_vectors(n, k)] == list(range(composition_count(n, k)))


def test_tree_pass_matches_the_search_on_every_small_tree():
    checked = 0
    for n in range(1, 5):
        for g in labeled_trees(n):
            steps, ones = exact._bfs_steps(g, 0), (1,) * g.n
            search = bound_memo(g, ones)
            for k in range(bound_report(g).lower_stacked + 2):
                for vec in iter_count_vectors(g.n, k):
                    assert (exact._pass(steps, 0, vec, ones) is not None) == search._decide(vec)[0], (g.edges, vec)
                    checked += 1
    assert checked > 60_000


def _spread(rng, n, k, support):
    counts = [0] * n
    for v, c in zip(rng.sample(range(n), support), random_composition(rng, k, support)):
        counts[v] = c
    return tuple(counts)


def test_tree_pass_matches_the_search_on_random_configurations():
    rng = random.Random(2024)
    named = [generate(Fuse(6, 3)), generate(Fuse(7, 3)), generate(Star(6)), generate(Path(7))]
    grown = [random_tree(rng, n) for n in (8, 9, 10)]
    outcomes = set()
    for g in named + grown:
        steps, ones = exact._bfs_steps(g, 0), (1,) * g.n
        search = bound_memo(g, ones)
        # refuting one big stack on a deep random tree takes the search
        # seconds, so there the stacks are checked against their cost
        # and the sampled configurations use at least two vertices
        smallest = 1 if g in named else 2
        gamma = bound_report(g).lower_stacked
        for k in range(gamma - 3, gamma + 2):
            for _ in range(40):
                vec = _spread(rng, g.n, k, rng.randint(smallest, g.n))
                answer = search._decide(vec)[0]
                assert (exact._pass(steps, 0, vec, ones) is not None) == answer, (g.edges, vec)
                outcomes.add(answer)
            for v in range(g.n):
                passed = exact._pass(steps, 0, stacked(g, v, k).counts, ones) is not None
                assert passed == (k >= stack_cost(g, v)), (g.edges, v, k)
    assert outcomes == {True, False}


def _dfs_steps(g):
    # (vertex, parent) from root 0, children before their parent; a
    # traversal independent of exact._bfs_steps
    steps = []

    def visit(v, parent):
        for c in g.adj[v]:
            if c != parent:
                visit(c, v)
                steps.append((c, v))

    visit(0, None)
    return steps


def _rooted_shape(g, v=0, parent=None):
    return "(" + "".join(sorted(_rooted_shape(g, c, v) for c in g.adj[v] if c != parent)) + ")"


def _brute_min_balance(g, k):
    # the tree pass's root balance, minimised over every vector of size k
    steps = _dfs_steps(g)
    best = None
    for vec in iter_count_vectors(g.n, k):
        bal = list(vec)
        for v, p in steps:
            b = bal[v] - 1
            bal[p] += b // 2 if b >= 0 else 2 * b
        if best is None or bal[0] < best:
            best = bal[0]
    return best


def _sized_memo(g, top):
    # a memo bound as verify_threshold binds it, its plans sized at top
    memo = bound_memo(g)
    memo._size_plans(top)
    return memo


def _top_vertex_memo(g, top):
    # a memo on g relabelled u -> n - 1 - u, its plans sized at top: the
    # DP from its top vertex n - 1, below which every vertex is free, is
    # the DP from g's root 0 with nothing held
    n = g.n
    return _sized_memo(build_graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges]), top)


def _tree_min_balance(memo, k):
    # the least root balance of the pass from root 0, nothing held, for k
    # pebbles, from the first k + 1 entries of the top vertex's row
    n = memo._graph.n
    return min(k - j + up for j, up in enumerate(memo._below(n - 1, [0] * n, k)[: k + 1]))


def _check_min_balance(trees, sizes):
    # the minimum depends on the tree only through its shape rooted at 0
    brute = {}
    checked = 0
    for g in trees:
        shape = _rooted_shape(g)
        gamma = bound_report(g).lower_stacked
        memo = _top_vertex_memo(g, max(sizes(gamma)))
        for k in sizes(gamma):
            if (shape, k) not in brute:
                brute[shape, k] = _brute_min_balance(g, k)
            least = _tree_min_balance(memo, k)
            assert least == brute[shape, k], (g.edges, k)
            assert (least >= 1) == (k >= gamma), (g.edges, k)
            checked += 1
    return checked


def test_tree_min_balance_matches_a_brute_force_minimum():
    single = _top_vertex_memo(generate(Path(1)), 2)
    assert [_tree_min_balance(single, k) for k in range(3)] == [0, 1, 2]
    trees = [g for n in range(1, 6) for g in labeled_trees(n)]
    assert _check_min_balance(trees, lambda gamma: range(gamma + 2)) == 3856


@pytest.mark.slow
def test_tree_min_balance_matches_a_brute_force_minimum_on_order6_trees():
    assert _check_min_balance(labeled_trees(6), lambda gamma: range(26)) == 1296 * 26


def _pass_balance(steps, root, vec):
    # root's balance after the pass over steps, written out again here
    bal = list(vec)
    for v, p in steps:
        b = bal[v] - 1
        bal[p] += b // 2 if b >= 0 else 2 * b
    return bal[root]


def _completions(v, j):
    # every placement of j pebbles on the vertices below v
    return iter_count_vectors(v, j) if v else [()] * (j == 0)


def test_passed_up_matches_every_completion_with_vertices_held():
    # as at a prefix of a threshold check: the plan DP from v, the vertices
    # above v held, those below v free, against every completion; the
    # plans are sized at the spare, and those of a second memo at 9, past
    # every spare, give the same entries
    rng = random.Random(12)
    graphs = _cyclic_graphs() + [g for n in range(1, 6) for g in labeled_trees(n)]
    checked = 0
    for g in graphs:
        memos = [_sized_memo(g, spare) for spare in range(7)]
        wider = _sized_memo(g, 9)
        for v in range(g.n):
            steps = exact._bfs_steps(g, v)
            for _ in range(2):
                held = {u: rng.randint(0, 4) for u in range(v + 1, g.n)}
                above = tuple(held[u] for u in range(v + 1, g.n))
                vec = [0] * (v + 1) + list(above)
                for spare in range(7):
                    below = memos[spare]._below(v, vec, spare)
                    assert wider._below(v, vec, spare)[: spare + 1] == below[: spare + 1], (g.edges, v, held, spare)
                    for x in range(spare + 1):
                        balances = [_pass_balance(steps, v, rest + (x,) + above) for rest in _completions(v, spare - x)]
                        if balances:
                            assert x + below[spare - x] == min(balances), (g.edges, v, held, spare, x)
                            checked += 1
    assert checked == 41_538


def _checked_prefix_dps(monkeypatch):
    # wrap SolveMemo._below: every row it returns must equal the reference
    # DP's, and so must the row of a second memo on the graph whose plans
    # are sized 3 past the first's; returns the list of calls checked
    below = SolveMemo._below
    calls, wider = [], {}

    def checked(self, v, vec, spare):
        row = below(self, v, vec, spare)
        held = {u: vec[u] for u in range(v + 1, self._graph.n)}
        want = passed_up(self._tree(v), v, held, spare)
        assert row[: spare + 1] == want, (self._graph.edges, v, held, spare)
        if self not in wider:
            wider[self] = _sized_memo(self._graph, self._top + 3)
        assert below(wider[self], v, vec, spare)[: spare + 1] == want, (self._graph.edges, v, held, spare)
        calls.append((v, spare))
        return row

    monkeypatch.setattr(SolveMemo, "_below", checked)
    return calls


def test_plan_rows_match_the_reference_on_every_prefix_dp_to_order5(monkeypatch):
    calls = _checked_prefix_dps(monkeypatch)
    for g in small_catalog(5):
        if len(g.edges) >= g.n:
            gamma_exact(g)
    assert len(calls) == PREFIX_DPS_TO_ORDER5


@pytest.mark.slow
def test_plan_rows_match_the_reference_on_every_prefix_dp_of_the_order6_classes(monkeypatch):
    calls = _checked_prefix_dps(monkeypatch)
    for g in connected_classes(6):
        if len(g.edges) >= g.n:
            gamma_exact(g)
    assert len(calls) == PREFIX_DPS_OF_ORDER6


def _counted_plans(monkeypatch):
    # the roots of the plans exact._dp_plan builds, in order
    dp_plan = exact._dp_plan
    built = []

    def counted(steps, root, shared):
        built.append(root)
        return dp_plan(steps, root, shared)

    monkeypatch.setattr(exact, "_dp_plan", counted)
    return built


def test_a_memo_plans_each_root_at_most_once(monkeypatch):
    # the memo keeps each root's plan: gamma_exact's size L - 1 check
    # reuses those its size L check built
    built = _counted_plans(monkeypatch)
    for g in (generate(Wheel(5)), generate(Multipartite((3, 3, 2))), generate(Path(5)), generate(Fuse(6, 3))):
        built.clear()
        gamma_exact(g)
        assert built and len(built) == len(set(built)), (g.edges, built)


def _plan_entries(memo):
    # the entries of the distinct rows the memo's plans and shared rows hold
    rows = {id(row): row for row in memo._shared[1:]}
    for plan in memo._plans:
        if plan is not None:
            rows.update((id(row), row) for row in plan[2].values() if isinstance(row, list))
    return sum(map(len, rows.values()))


def test_the_plans_keep_at_most_n_rows_of_l_plus_1_entries(monkeypatch):
    memos = []

    class Recorded(SolveMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(exact, "SolveMemo", Recorded)
    # path 12 keeps a row per root above 1 and the two shared rows; star
    # 150's fixed rows are all shared
    for g, rows in ((generate(Path(12)), 12), (generate(Star(150)), 2)):
        memos.clear()
        top = gamma_exact(g).gamma
        [memo] = memos
        assert _plan_entries(memo) == memo._kept == rows * (top + 1) <= g.n * (top + 1), g.edges


def test_plans_past_the_row_bound_drop_the_others(monkeypatch):
    # on this relabelled path the plans from roots 1 to 5 would keep five
    # rows and the shared two, past n = 6; the memo drops the plans it
    # holds, keeps within the bound, and plans a dropped root again
    built = _counted_plans(monkeypatch)
    g = build_graph(6, [(0, 1), (0, 5), (2, 3), (2, 4), (4, 5)])
    top = bound_report(g).lower_stacked
    memo = _sized_memo(g, top)
    for v in (5, 4, 3, 2, 1) * 2:
        want = passed_up(memo._tree(v), v, dict.fromkeys(range(v + 1, 6), 0), top)
        assert memo._below(v, [0] * 6, top)[: top + 1] == want, v
        assert _plan_entries(memo) == memo._kept <= 6 * (top + 1), v
    assert len(built) > 5 and sorted(set(built)) == [1, 2, 3, 4, 5], built
    assert verify_threshold(g, top, memo=memo).ok
    assert not verify_threshold(g, top - 1, memo=memo).ok


def test_stack_potentials_refute_only_unsolvable_vectors(monkeypatch):
    refutes = SolveMemo._refutes
    calls = []

    def counted(self, vec):
        calls.append(vec)
        return refutes(self, vec)

    monkeypatch.setattr(SolveMemo, "_refutes", counted)
    refuted = 0
    for g in small_catalog(4):
        costs = [stack_cost(g, v) for v in range(g.n)]
        calls.clear()
        assert not verify_threshold(g, max(costs) - 1).ok, g.edges
        if len(g.edges) < g.n:
            # the pass is exact on a tree, so no refutation runs there
            assert calls == [], g.edges
            continue
        assert calls, g.edges
        search = bound_memo(g)
        for k in range(max(costs) + 2):
            for vec in iter_count_vectors(g.n, k):
                if refutes(search, vec):
                    assert not search._decide(vec)[0], (g.edges, vec)
                    refuted += 1
        for v, cost in enumerate(costs):
            assert refutes(search, stacked(g, v, cost - 1).counts), (g.edges, v)
            assert not refutes(search, stacked(g, v, cost).counts), (g.edges, v)
    assert refuted == 2_994


def test_a_memo_builds_the_potential_rows_once():
    # two threshold checks sharing a memo, as gamma_exact's sizes do, read
    # one set of rows; each check at L - 1 refutes its witness by them
    for g in (generate(Wheel(5)), generate(Multipartite((3, 2, 2)))):
        memo = SolveMemo()
        below = bound_report(g).lower_stacked - 1
        assert not verify_threshold(g, below, memo=memo).ok, g.edges
        rows = memo._potentials
        assert rows is not None, g.edges
        assert not verify_threshold(g, below, memo=memo).ok, g.edges
        assert memo._potentials is rows, g.edges


def test_a_memo_builds_each_bfs_tree_once(monkeypatch):
    # the memo owns the trees: solves sharing one memo, and gamma_exact's
    # two sizes, build the tree from each root once
    bfs_steps = exact._bfs_steps
    built = []

    def counted(g, root):
        built.append(root)
        return bfs_steps(g, root)

    monkeypatch.setattr(exact, "_bfs_steps", counted)
    w6 = generate(Wheel(6))
    memo = SolveMemo()
    for v in (0, 1):
        for size in range(12, 20):
            solve(w6, stacked(w6, v, size), memo=memo)
    assert sorted(built) == list(range(w6.n))
    for g in (generate(Wheel(5)), generate(Path(5))):
        built.clear()
        gamma_exact(g)
        assert sorted(built) == list(range(g.n)), g.edges


def test_failing_checks_below_the_stack_bound_skip_the_search(monkeypatch):
    # the colex-first witness at L - 1 is a stack the potentials refute,
    # and the tree passes certify every vector before it
    calls = []
    real = SolveMemo._decide

    def counted(self, counts, budget=None):
        calls.append(counts)
        return real(self, counts, budget)

    monkeypatch.setattr(SolveMemo, "_decide", counted)
    graphs = [
        generate(Wheel(5)),
        generate(Multipartite((3, 2, 2))),
        build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]),
    ]
    for g in graphs:
        result = verify_threshold(g, bound_report(g).lower_stacked - 1)
        assert not result.ok, g.edges
        assert calls == [], g.edges


def _cyclic_graphs():
    # every labelled graph of order <= 4 and every order-5 class with a cycle
    return [g for g in small_catalog(4) + list(connected_classes(5)) if len(g.edges) >= g.n]


def test_bfs_steps_span_the_graph_one_step_nearer_the_root():
    for g in _cyclic_graphs() + list(labeled_trees(4)):
        for root in range(g.n):
            steps = exact._bfs_steps(g, root)
            depth = g.dist[root]
            assert sorted(v for v, _ in steps) == [v for v in range(g.n) if v != root], g.edges
            depths = [depth[v] for v, _ in steps]
            assert depths == sorted(depths, reverse=True), (g.edges, root)
            for v, p in steps:
                assert p in g.adj[v] and depth[p] == depth[v] - 1, (g.edges, root, v)
                assert p == min(u for u in g.adj[v] if depth[u] == depth[v] - 1), (g.edges, root, v)


def test_bfs_tree_certificates_never_pass_an_unsolvable_vector():
    outcomes = set()
    for g in _cyclic_graphs():
        trees = [exact._bfs_steps(g, root) for root in range(g.n)]
        ones = (1,) * g.n
        search = bound_memo(g, ones)
        gamma = bound_report(g).lower_stacked
        sizes = range(gamma + 2) if g.n <= 4 else (gamma - 1,)
        for k in sizes:
            for vec in iter_count_vectors(g.n, k):
                certified = any(exact._pass(steps, root, vec, ones) is not None for root, steps in enumerate(trees))
                if certified or g.n <= 4:
                    solvable = search._decide(vec)[0]
                    assert solvable or not certified, (g.edges, vec)
                    outcomes.add((certified, solvable))
    # the trees certify most solvable vectors, but not all of them
    assert outcomes == {(True, True), (False, True), (False, False)}


def _certified_scan(g, k):
    # the flat scan the colex prefix search replaced: the BFS-tree passes
    # from every vertex, then the search, on every vector in colex order
    trees = [exact._bfs_steps(g, root) for root in range(g.n)]
    ones = (1,) * g.n
    search = bound_memo(g, ones)
    for rank, vec in enumerate(iter_count_vectors(g.n, k)):
        certified = any(exact._pass(steps, root, vec, ones) is not None for root, steps in enumerate(trees))
        if not certified and not search._decide(vec)[0]:
            return Configuration(vec), rank + 1
    return None, composition_count(g.n, k)


def test_prefix_search_matches_the_flat_scan_on_order5_cyclic_graphs():
    checked = witnesses = 0
    for g in connected_classes(5):
        if len(g.edges) < g.n:
            continue
        gamma = bound_report(g).lower_stacked
        for k in range(gamma - 3, gamma + 2):
            result = verify_threshold(g, k)
            assert (result.witness, result.configs_checked) == _certified_scan(g, k), (g.edges, k)
            checked += 1
            witnesses += not result.ok
    assert (checked, witnesses) == (90, 54)
