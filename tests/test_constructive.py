import itertools
import random

import pytest
from util import (
    move_pairs,
    random_config,
    random_graph,
    random_piles,
    random_with_diameter,
    reference_pigeonhole_sends,
    reference_shortest_path,
    reference_solve_diameter,
    reference_solve_multipartite,
)

from coverpebble import (
    BinaryWeighting,
    Configuration,
    Fuse,
    InternalAssertion,
    LengthMismatch,
    Multipartite,
    Path,
    PebblingError,
    PreconditionViolated,
    Star,
    Wheel,
    build_graph,
    diameter_bound,
    format_trace,
    gamma_multipartite,
    gamma_wheel,
    generate,
    is_covered,
    iter_count_vectors,
    shortest_path,
    solve,
    solve_diameter,
    solve_multipartite,
    solve_pigeonhole,
    solve_wheel,
    stacked,
    validate_certificate,
    weighted_cover_bound,
)
from coverpebble import constructive

K2 = generate(Multipartite((1, 1)))
P3 = generate(Path(3))


def test_shortest_path_lex_least():
    k22 = generate(Multipartite((2, 2)))
    # 1 -> 0 has two length-2 routes, through 2 or 3; the smaller wins
    assert shortest_path(k22, 1, 0) == [1, 2, 0]
    assert shortest_path(P3, 0, 2) == [0, 1, 2]
    assert shortest_path(P3, 1, 1) == [1]


def test_pigeonhole_k2():
    cert = solve_pigeonhole(K2, BinaryWeighting((1, 1)), Configuration((3, 0)))
    assert move_pairs(cert) == [(0, 1)]
    assert validate_certificate(K2, cert, BinaryWeighting((1, 1))).counts == (1, 1)


def test_pigeonhole_single_mark_is_trivial():
    for graph, marks, counts in [
        (K2, (1, 0), (4, 0)),
        (P3, (0, 1, 0), (0, 9, 0)),
    ]:
        cert = solve_pigeonhole(graph, BinaryWeighting(marks), Configuration(counts))
        assert cert.moves == ()


def test_pigeonhole_p3_exact_moves():
    b = BinaryWeighting((1, 0, 1))
    cert = solve_pigeonhole(P3, b, Configuration((5, 0, 0)))
    assert move_pairs(cert) == [(0, 1), (0, 1), (1, 2)]
    assert validate_certificate(P3, cert, b).counts == (1, 0, 1)


def test_pigeonhole_preconditions():
    with pytest.raises(PreconditionViolated):
        solve_pigeonhole(P3, BinaryWeighting((1, 0, 1)), Configuration((0, 1, 0)))
    with pytest.raises(PreconditionViolated):
        solve_pigeonhole(P3, BinaryWeighting((1, 0, 1)), Configuration((4, 0, 0)))
    with pytest.raises(LengthMismatch):
        solve_pigeonhole(P3, BinaryWeighting((1, 0)), Configuration((5, 0, 0)))


def test_pigeonhole_keeps_occupied_marks_covered():
    # replay move by move; a marked vertex that starts occupied must stay
    # occupied through every prefix of the certificate
    g = generate(Fuse(6, 3))
    rng = random.Random(7)
    marks = (1, 0, 1, 1, 0, 1)
    b = BinaryWeighting(marks)
    size = weighted_cover_bound(b.order, g.diam)
    for _ in range(200):
        spread = [0] * g.n
        for v, part in zip(b.support, random_config(rng, b.order, size).counts):
            spread[v] = part
        c = Configuration(tuple(spread))
        cert = solve_pigeonhole(g, b, c)
        counts = list(c.counts)
        keep = [v for v in b.support if counts[v] > 0]
        for move in cert.moves:
            counts[move.src] -= 2
            counts[move.dst] += 1
            assert min(counts) >= 0
            for v in keep:
                assert counts[v] >= 1
        assert all(counts[v] >= 1 for v in b.support)


def test_diameter_p3_hand_example():
    cert, trace = solve_diameter(P3, Configuration((7, 0, 0)))
    assert move_pairs(cert) == [(0, 1), (0, 1), (0, 1), (1, 2)]
    assert validate_certificate(P3, cert).counts == (1, 1, 1)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.action == "send"
    assert (step.source, step.target, step.pebbles) == (0, 1, 2)
    assert trace.weighting.marks == (1, 0, 1)
    assert trace.residual.counts == (5, 0, 0)


def test_diameter_already_covered_stops_early():
    cert, trace = solve_diameter(P3, Configuration((5, 1, 1)))
    assert cert.moves == ()
    assert trace.steps == ()
    assert trace.weighting is None


def test_diameter_fuse_stack():
    g = generate(Fuse(5, 3))
    cert, trace = solve_diameter(g, stacked(g, 0, 23))
    final = validate_certificate(g, cert)
    assert all(x > 0 for x in final.counts)
    # every recorded step locks one more vertex
    for m, step in enumerate(trace.steps):
        assert step.step == m
        assert len(step.settled) == m
        assert set(step.donors) | set(step.empty) | set(step.settled) == set(range(g.n))
        assert not set(step.donors) & set(step.empty)
        assert not set(step.donors) & set(step.settled)
        assert not set(step.empty) & set(step.settled)


def test_diameter_trace_budget_inequality():
    g = generate(Fuse(6, 3))
    bound = diameter_bound(g.n, g.diam)
    rng = random.Random(11)
    for _ in range(100):
        c = random_config(rng, g.n, bound)
        cert, trace = solve_diameter(g, c)
        validate_certificate(g, cert)
        counts = list(c.counts)
        replay = iter(cert.moves)
        for step in trace.steps:
            held = sum(counts[v] for v in step.donors)
            assert held >= bound - ((1 << (step.step + 1)) - 2)
            if step.action == "send":
                edge_count = len(step.path) - 1
                for _ in range(step.pebbles - (step.pebbles >> edge_count)):
                    move = next(replay)
                    counts[move.src] -= 2
                    counts[move.dst] += 1


def _sends(rng, count):
    # (graph, certificate, weighting) from both strategies on random graphs
    # of order 2 to 12, each configuration 0 to 2 pebbles over the
    # threshold, spread over at most three vertices, the weighting's marks
    # for pigeonhole, so that most targets start empty
    for _ in range(count):
        g = random_graph(rng, rng.randint(2, 12))
        for b in (None, BinaryWeighting(tuple(rng.randrange(2) for _ in range(g.n - 1)) + (1,))):
            support = range(g.n) if b is None else b.support
            piles = rng.sample(support, min(len(support), rng.randint(1, 3)))
            size = diameter_bound(g.n, g.diam) if b is None else weighted_cover_bound(b.order, g.diam)
            spread = [0] * g.n
            for v, part in zip(piles, random_config(rng, len(piles), size + rng.randrange(3)).counts):
                spread[v] = part
            c = Configuration(tuple(spread))
            yield g, solve_diameter(g, c)[0] if b is None else solve_pigeonhole(g, b, c), b


def _unit_moves(rng, count):
    # (graph, certificate, None) from the wheel and multipartite
    # strategies, which move one pebble at a time, on random wheels and
    # shapes, each configuration 0 to 2 pebbles over the threshold
    for _ in range(count):
        rim = rng.randint(3, 10)
        g = generate(Wheel(rim))
        yield g, solve_wheel(g, random_config(rng, g.n, gamma_wheel(rim) + rng.randrange(3))), None
        sizes = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(2, 4))), reverse=True))
        g = generate(Multipartite(sizes))
        c = random_config(rng, g.n, gamma_multipartite(sizes) + rng.randrange(3))
        yield g, solve_multipartite(g, sizes, c), None


def test_constructive_certificates_hold_one_move_object_per_run():
    # each hop of a send is one PebblingMove repeated, and a send whose
    # first hop repeats the move before it, within one strategy or across
    # the diameter strategy's handoff to its endgame, continues that run;
    # so does a single move of the wheel or multipartite strategy that
    # repeats the one before it
    runs = 0
    for g, cert, b in itertools.chain(_sends(random.Random(19), 300), _unit_moves(random.Random(23), 100)):
        moves = cert.moves
        assert len(set(map(id, moves))) == sum(1 for _ in itertools.groupby(moves)), g.edges
        runs += len(set(map(id, moves)))
        validate_certificate(g, cert, b)
    assert runs > 1000


def _runs(cert):
    return [(m.src, m.dst, len(list(run))) for m, run in itertools.groupby(cert.moves)]


def test_pigeonhole_and_diameter_certificates_keep_their_moves():
    # (src, dst, repeats) per run, taken when the strategies still built
    # one PebblingMove per pebble moved
    assert _runs(solve_pigeonhole(P3, BinaryWeighting((1, 1, 1)), Configuration((9, 0, 0)))) == [
        (0, 1, 4), (1, 2, 1),
    ]
    w5 = generate(Wheel(5))
    assert _runs(solve_pigeonhole(w5, BinaryWeighting((0, 1, 1, 1, 1, 1)), Configuration((0, 0, 12, 0, 0, 5)))) == [
        (2, 1, 2), (2, 3, 2), (5, 4, 2),
    ]
    fuse = generate(Fuse(6, 3))
    assert _runs(solve_diameter(fuse, stacked(fuse, 5, 31))[0]) == [
        (5, 2, 3), (2, 1, 1), (5, 2, 4), (2, 1, 2), (1, 0, 1), (5, 2, 4), (2, 3, 2), (5, 2, 4), (2, 4, 2),
    ]
    # a 5-cycle 2-3-4-6-5 with the path 0-1-2 hung on it, diameter 4
    g7 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (4, 6)])
    assert _runs(solve_diameter(g7, stacked(g7, 6, 64))[0]) == [
        (6, 4, 1), (6, 5, 6), (5, 2, 2), (6, 5, 8), (5, 2, 4), (2, 1, 2), (1, 0, 1), (6, 5, 8), (5, 2, 4),
        (2, 1, 2), (6, 4, 8), (4, 3, 4),
    ]


def test_diameter_precondition():
    with pytest.raises(PreconditionViolated):
        solve_diameter(P3, Configuration((6, 0, 0)))


def test_diameter_single_vertex():
    single = generate(Path(1))
    cert, trace = solve_diameter(single, Configuration((1,)))
    assert cert.moves == ()
    with pytest.raises(PreconditionViolated):
        solve_diameter(single, Configuration((0,)))


def test_wheel_stack_examples():
    w3 = generate(Wheel(3))
    cert = solve_wheel(w3, stacked(w3, 1, 7))
    final = validate_certificate(w3, cert)
    assert all(x > 0 for x in final.counts)

    w4 = generate(Wheel(4))
    cert = solve_wheel(w4, Configuration((11, 0, 0, 0, 0)))
    assert validate_certificate(w4, cert).counts == (3, 1, 1, 1, 1)
    assert move_pairs(cert) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_wheel_already_covered():
    w3 = generate(Wheel(3))
    cert = solve_wheel(w3, Configuration((1, 2, 2, 2)))
    assert cert.moves == ()


def test_wheel_preconditions():
    w3 = generate(Wheel(3))
    with pytest.raises(PreconditionViolated):
        solve_wheel(w3, Configuration((6, 0, 0, 0)))
    with pytest.raises(PreconditionViolated):
        solve_wheel(P3, Configuration((9, 0, 0)))


def test_wheel_threshold_exhaustive_w3():
    w3 = generate(Wheel(3))
    count = 0
    for c in map(Configuration, iter_count_vectors(4, gamma_wheel(3))):
        cert = solve_wheel(w3, c)
        final = validate_certificate(w3, cert)
        assert all(x > 0 for x in final.counts)
        count += 1
    assert count == 120


def test_wheel_random_samples_w6():
    g = generate(Wheel(6))
    size = gamma_wheel(6)
    rng = random.Random(23)
    for _ in range(1000):
        c = random_config(rng, g.n, size)
        cert = solve_wheel(g, c)
        validate_certificate(g, cert)


def test_multipartite_k2():
    cert = solve_multipartite(K2, (1, 1), Configuration((3, 0)))
    assert move_pairs(cert) == [(0, 1)]


def test_multipartite_k22_stack():
    k22 = generate(Multipartite((2, 2)))
    cert = solve_multipartite(k22, (2, 2), stacked(k22, 2, 9))
    final = validate_certificate(k22, cert)
    assert all(x > 0 for x in final.counts)


def test_multipartite_star_stack():
    s2 = generate(Multipartite((2, 1)))
    cert = solve_multipartite(s2, (2, 1), stacked(s2, 0, 7))
    final = validate_certificate(s2, cert)
    assert all(x > 0 for x in final.counts)


def test_multipartite_single_vertex_rule():
    single = generate(Multipartite((1,)))
    cert = solve_multipartite(single, (1,), Configuration((2,)))
    assert cert.moves == ()
    with pytest.raises(PreconditionViolated):
        solve_multipartite(single, (1,), Configuration((0,)))


def test_multipartite_preconditions():
    k22 = generate(Multipartite((2, 2)))
    with pytest.raises(PreconditionViolated):
        solve_multipartite(k22, (2, 2), stacked(k22, 0, 8))
    with pytest.raises(PreconditionViolated):
        solve_multipartite(k22, (2, 1), stacked(k22, 0, 9))
    with pytest.raises(PreconditionViolated):
        solve_multipartite(k22, (2,), Configuration((9, 0, 0, 0)))


def test_multipartite_refuses_a_star_with_its_hub_first():
    # K(2, 1) puts the hub last, at index 2
    star = build_graph(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionViolated):
        solve_multipartite(star, (2, 1), Configuration((7, 0, 0)))


def test_multipartite_threshold_exhaustive_k22():
    k22 = generate(Multipartite((2, 2)))
    count = 0
    for c in map(Configuration, iter_count_vectors(4, gamma_multipartite((2, 2)))):
        cert = solve_multipartite(k22, (2, 2), c)
        final = validate_certificate(k22, cert)
        assert all(x > 0 for x in final.counts)
        count += 1
    assert count == 220


def test_multipartite_random_samples_32():
    g = generate(Multipartite((3, 2)))
    size = gamma_multipartite((3, 2))
    rng = random.Random(31)
    for _ in range(1000):
        c = random_config(rng, g.n, size)
        cert = solve_multipartite(g, (3, 2), c)
        validate_certificate(g, cert)


def test_constructive_agrees_with_search_on_small_stars():
    # below-threshold inputs are refused, at-threshold inputs match solve
    s3 = generate(Star(3))
    threshold = gamma_multipartite((3, 1))
    for c in map(Configuration, iter_count_vectors(4, threshold)):
        assert solve(s3, c).solvable
        cert = solve_multipartite(s3, (3, 1), c)
        validate_certificate(s3, cert)


def test_format_trace_lines():
    g = generate(Fuse(5, 3))
    _, trace = solve_diameter(g, stacked(g, 0, 23))
    text = format_trace(trace)
    lines = text.strip().splitlines()
    assert len(lines) == len(trace.steps) + (1 if trace.weighting else 0)
    assert lines[0].startswith("step 0:")


def test_format_trace_retire_line():
    # vertex 0 holds no more than the step-0 quota of 2, so it is settled
    # as is, and the pigeonhole endgame covers vertex 1 from vertex 2
    cert, trace = solve_diameter(P3, Configuration((2, 0, 5)))
    assert move_pairs(cert) == [(2, 1), (2, 1)]
    assert format_trace(trace) == (
        "step 0: donors=[0, 2] empty=[1] settled=[] retire 0\n"
        "handoff: marks=0 1 1 residual=0 0 5\n"
    )


def test_solvers_reject_covered_check_failures():
    # solvers must not care whether extra pebbles remain after covering
    w4 = generate(Wheel(4))
    c = Configuration((0, 11, 0, 0, 0))
    cert = solve_wheel(w4, c)
    final = validate_certificate(w4, cert)
    assert is_covered(final)


def _same_runs(a, b):
    # equal moves, and a new move object exactly where the other has one
    assert a == b
    assert [x is y for x, y in zip(a, a[1:])] == [x is y for x, y in zip(b, b[1:])]


def test_diameter_and_pigeonhole_strategies_match_their_references():
    # the nearest pair from one minimum per donor row, the pigeonhole
    # donor cursor and the one-row shortest path give the certificates
    # and traces of plain minimums and rescans, on 500 graphs of order 6
    # to 30 and diameter 2 to 8 for each strategy
    rng = random.Random(35)
    shapes = set()
    for i in range(1000):
        n = 6 + i % 25
        g = random_with_diameter(rng, n, min(n - 1, 2 + i // 25 % 7))
        shapes.add((n, g.diam))
        for _ in range(3):
            u, v = rng.randrange(n), rng.randrange(n)
            assert shortest_path(g, u, v) == reference_shortest_path(g, u, v)
        if i % 2:
            b = BinaryWeighting(tuple(int(rng.random() < 0.7) for _ in range(n)))
            b = b if b.order else BinaryWeighting((1,) * n)
            c = random_piles(rng, n, weighted_cover_bound(b.order, g.diam) + rng.randrange(4), b.support)
            cert = solve_pigeonhole(g, b, c)
            _same_runs(cert.moves, tuple(reference_pigeonhole_sends(g, b, c, [])))
        else:
            c = random_piles(rng, n, diameter_bound(n, g.diam) + rng.randrange(4), range(n))
            cert, trace = solve_diameter(g, c)
            expected, expected_trace = reference_solve_diameter(g, c)
            _same_runs(cert.moves, expected.moves)
            assert (cert.initial, trace) == (expected.initial, expected_trace)
    assert {d for _, d in shapes} == set(range(2, 9))
    assert {n for n, _ in shapes} == set(range(6, 31))


def _shapes(n, most=None):
    # every list of class sizes summing to n, nonincreasing
    if n == 0:
        yield ()
    for s in range(min(n, most or n), 0, -1):
        for rest in _shapes(n - s, s):
            yield (s, *rest)


def _multipartite_outcome(solver, g, sizes, c):
    # the moves and which of them share one object, or the refusal
    try:
        moves = solver(g, sizes, c).moves
    except PebblingError as exc:
        return type(exc), str(exc)
    return moves, [x is y for x, y in zip(moves, moves[1:])]


def test_multipartite_strategy_matches_its_reference():
    # the per-round counts, the queue of small vertices and the forward
    # cursors give the certificates, runs and refusals of rebuilding the
    # pool every round: on every configuration at the threshold of every
    # shape of order 5 or less, the one-vertex graph and the two-class
    # stars included, and on 2,400 inputs 0 to 3 pebbles over it on
    # shapes of order 6 to 30, half spread and half in piles
    def same(g, sizes, c):
        outcome = _multipartite_outcome(solve_multipartite, g, sizes, c)
        assert outcome == _multipartite_outcome(reference_solve_multipartite, g, sizes, c), (sizes, c)
        return outcome

    covered = 0
    for n in range(1, 6):
        for sizes in _shapes(n):
            if len(sizes) > 1 or n == 1:
                g = generate(Multipartite(sizes))
                for c in map(Configuration, iter_count_vectors(n, gamma_multipartite(sizes))):
                    covered += isinstance(same(g, sizes, c)[1], list)
    assert covered == 13067
    rng = random.Random(37)
    for i in range(2400):
        n = 6 + i % 25
        sizes = [1] * rng.randint(2, min(n, 8))
        for _ in range(n - len(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        sizes = tuple(sorted(sizes, reverse=True))
        g = generate(Multipartite(sizes))
        size = gamma_multipartite(sizes) + rng.randrange(4)
        c = random_config(rng, n, size) if i % 2 else random_piles(rng, n, size, range(n))
        assert isinstance(same(g, sizes, c)[1], list)
    # below the threshold, the wrong graph, the wrong length
    k22 = generate(Multipartite((2, 2)))
    star = build_graph(3, [(0, 1), (0, 2)])
    for g, sizes, c in [
        (k22, (2, 2), stacked(k22, 0, 8)),
        (k22, (2, 1), stacked(k22, 0, 9)),
        (k22, (3, 1), stacked(k22, 0, 9)),
        (k22, (1, 2), stacked(k22, 0, 9)),
        (star, (2, 1), Configuration((7, 0, 0))),
        (k22, (2, 2), Configuration((9, 0, 0))),
    ]:
        assert issubclass(same(g, sizes, c)[0], PebblingError)


def test_multipartite_check_catches_a_move_that_spends_too_much(monkeypatch):
    # held is read off the board, not lowered by one per move, so a move
    # that takes a third pebble off its source still trips the per-round
    # threshold check: K(2, 2) from 9 on vertex 0 pushes a pair to vertex
    # 2, after which 6 pebbles stand where the threshold of K(2, 1) is 7
    unit_move = constructive._unit_move

    def greedy(src, dst, counts, moves):
        unit_move(src, dst, counts, moves)
        counts[src] -= 1

    monkeypatch.setattr(constructive, "_unit_move", greedy)
    k22 = generate(Multipartite((2, 2)))
    for solver in (solve_multipartite, reference_solve_multipartite):
        with pytest.raises(InternalAssertion, match="active pool dropped below its cover threshold"):
            solver(k22, (2, 2), stacked(k22, 0, 9))
    # the cursors rest on right moves: on K(2, 2, 1) the move 0 -> 3
    # empties vertex 0, behind the hole cursor, and the last check keeps
    # the strategy from returning with vertex 0 empty
    k221 = generate(Multipartite((2, 2, 1)))
    with pytest.raises(InternalAssertion, match="finished with an uncovered vertex"):
        solve_multipartite(k221, (2, 2, 1), Configuration((3, 1, 4, 0, 3)))
