import itertools
import random

import pytest
from util import random_piles, random_with_diameter, replay_moves

from coverpebble import (
    BinaryWeighting,
    Certificate,
    Configuration,
    Fuse,
    IllegalMoveAt,
    InvalidSpec,
    LengthMismatch,
    Multipartite,
    PebblingError,
    NotCoveredAtEnd,
    ParseError,
    PebblingMove,
    SolveMemo,
    Wheel,
    diameter_bound,
    format_config,
    format_weighting,
    generate,
    is_covered,
    is_permissible,
    iter_count_vectors,
    parse_config,
    parse_weighting,
    solve,
    solve_diameter,
    solve_pigeonhole,
    stacked,
    validate_certificate,
    weighted_cover_bound,
)

K2 = generate(Multipartite((1, 1)))
P3 = generate(Fuse(3, 2))


def test_configuration_basics():
    c = Configuration((2, 0, 5))
    assert c.size == 7
    with pytest.raises(ValueError):
        Configuration((1, -1))


def test_weighting_basics():
    b = BinaryWeighting((1, 0, 1))
    assert b.order == 2
    assert b.support == (0, 2)
    with pytest.raises(ValueError):
        BinaryWeighting((1, 2))


@pytest.mark.parametrize("mark", [1.0, 0.0, "1", None, True, False])
def test_weighting_refuses_marks_that_are_not_integers(mark):
    # 1.0 == 1, so a test by value alone let (1.0, 0, 0, 0, 0) through
    # and solve then failed with a TypeError in the pass; True is an
    # int, but would print as "True"
    with pytest.raises(InvalidSpec, match="marks must be"):
        BinaryWeighting((mark, 0, 0, 0, 0))


def _reuse_memo_on_another_graph():
    memo = SolveMemo()
    solve(P3, Configuration((1, 1, 1)), memo=memo)
    solve(K2, Configuration((1, 1)), memo=memo)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Configuration((1, -1)),
        lambda: Configuration((True, 0)),
        lambda: BinaryWeighting((1, 2)),
        lambda: stacked(P3, 3, 4),
        lambda: stacked(P3, 0, -1),
        _reuse_memo_on_another_graph,
    ],
    ids=["configuration", "configuration-bool", "weighting", "stacked", "stacked-negative", "memo-bind"],
)
def test_invalid_values_raise_a_pebbling_error(bad):
    # one except clause at a process boundary catches every deliberate
    # error, and the old ValueError contract still holds
    with pytest.raises(PebblingError) as info:
        bad()
    assert isinstance(info.value, InvalidSpec)
    assert isinstance(info.value, ValueError)


def test_is_covered_examples():
    assert is_covered(Configuration((1, 1, 1)))
    assert is_covered(Configuration((5, 0)), BinaryWeighting((1, 0)))
    assert not is_covered(Configuration((0, 3)), BinaryWeighting((1, 1)))
    assert not is_covered(Configuration((1, 0, 1)))


def test_is_permissible_examples():
    assert is_permissible(Configuration((3, 0)), BinaryWeighting((1, 0)))
    assert not is_permissible(Configuration((3, 1)), BinaryWeighting((1, 0)))
    assert is_permissible(Configuration((0, 0)), BinaryWeighting((0, 0)))
    assert is_permissible(Configuration((0, 0)), BinaryWeighting((1, 1)))


def test_weighting_length_checks_share_one_message():
    c = Configuration((1, 0, 2))
    short = BinaryWeighting((1, 0))
    for check in (is_covered, is_permissible):
        with pytest.raises(LengthMismatch, match="weighting has 2 entries for order 3"):
            check(c, short)


def test_all_ones_weighting_matches_unweighted():
    # exhaustive at 3 vertices, sizes up to 6
    ones = BinaryWeighting((1, 1, 1))
    for k in range(7):
        for vec in iter_count_vectors(3, k):
            c = Configuration(vec)
            assert is_covered(c, ones) == is_covered(c)
            assert is_permissible(c, ones)


def test_stacked_examples():
    w3 = generate(Wheel(3))
    assert stacked(w3, 1, 6).counts == (0, 6, 0, 0)
    assert stacked(w3, 2, 0).counts == (0, 0, 0, 0)
    f = generate(Fuse(7, 4))
    witness = stacked(f, 0, 62)
    assert witness.size == 62 and witness.counts[0] == 62
    assert not solve(f, witness).solvable


def test_validate_certificate_examples():
    cert = Certificate(Configuration((3, 0)), (PebblingMove(0, 1),))
    assert validate_certificate(K2, cert).counts == (1, 1)

    bad = Certificate(Configuration((2, 0)), (PebblingMove(0, 1),))
    with pytest.raises(NotCoveredAtEnd) as exc:
        validate_certificate(K2, bad)
    assert exc.value.uncovered == {0}

    moves = (PebblingMove(0, 1), PebblingMove(0, 1), PebblingMove(0, 1), PebblingMove(1, 2))
    hand = Certificate(Configuration((7, 0, 0)), moves)
    assert validate_certificate(P3, hand).counts == (1, 1, 1)


def test_validate_certificate_illegal_moves():
    cert = Certificate(Configuration((1, 0)), (PebblingMove(0, 1),))
    with pytest.raises(IllegalMoveAt) as exc:
        validate_certificate(K2, cert)
    assert exc.value.index == 0

    cert = Certificate(Configuration((4, 0, 0)), (PebblingMove(0, 2),))
    with pytest.raises(IllegalMoveAt):
        validate_certificate(P3, cert)

    cert = Certificate(Configuration((4, 0, 0)), (PebblingMove(0, 1), PebblingMove(1, 2)))
    with pytest.raises(IllegalMoveAt) as exc:
        validate_certificate(P3, cert)
    assert exc.value.index == 1
    assert str(exc.value) == "move #1 (1->2) is illegal: source holds 1 pebbles"

    cert = Certificate(Configuration((4, 0, 0)), (PebblingMove(0, 3),))
    with pytest.raises(IllegalMoveAt) as exc:
        validate_certificate(P3, cert)
    assert exc.value.reason == "vertex out of range"

    with pytest.raises(LengthMismatch):
        validate_certificate(K2, Certificate(Configuration((3, 0, 0)), ()))


@pytest.mark.parametrize(
    "bad",
    [PebblingMove(True, 0), PebblingMove(0, True), PebblingMove(1.0, 0), PebblingMove(0, 1.0),
     PebblingMove("0", 1)],
    ids=["bool-source", "bool-target", "float-source", "float-target", "string-source"],
)
def test_replay_refuses_a_move_vertex_that_is_not_an_int(bad):
    # True used to replay as vertex 1, and the others raised TypeError;
    # the bad move repeats, as a run does, and fails at its first index
    cert = Certificate(Configuration((4, 4, 0)), (PebblingMove(1, 2), bad, bad))
    with pytest.raises(IllegalMoveAt) as exc:
        validate_certificate(P3, cert)
    assert (exc.value.index, exc.value.reason) == (1, "vertex out of range")


@pytest.mark.parametrize("bad", [None, (0, 1)], ids=["none", "tuple"])
def test_replay_refuses_a_move_that_is_not_a_pebbling_move(bad):
    # a None first move must not pass for the run check's sentinel, and a
    # move without src and dst fails at its index, not by AttributeError
    for moves, index in (((bad,), 0), ((PebblingMove(0, 1), bad, bad), 1)):
        cert = Certificate(Configuration((4, 4, 0)), moves)
        with pytest.raises(IllegalMoveAt) as exc:
            validate_certificate(P3, cert)
        assert (exc.value.index, exc.value.move, exc.value.reason) == (index, bad, "not a PebblingMove")
        assert str(exc.value) == f"move #{index} ({bad}) is illegal: not a PebblingMove"


def test_empty_certificate_iff_covered():
    for counts in itertools.product(range(3), repeat=3):
        c = Configuration(counts)
        cert = Certificate(c, ())
        if is_covered(c):
            assert validate_certificate(P3, cert) == c
        else:
            with pytest.raises(NotCoveredAtEnd):
                validate_certificate(P3, cert)


def test_validate_certificate_weighted():
    b = BinaryWeighting((1, 0, 1))
    cert = Certificate(Configuration((5, 0, 0)),
                       (PebblingMove(0, 1), PebblingMove(0, 1), PebblingMove(1, 2)))
    assert validate_certificate(P3, cert, b).counts == (1, 0, 1)


def test_config_text_round_trip():
    c = Configuration((4, 0, 7))
    assert format_config(c) == "4 0 7"
    assert parse_config("4 0 7", 3) == c
    assert parse_config("  4  0 7 \n", 3) == c
    with pytest.raises(LengthMismatch):
        parse_config("1 2", 3)
    with pytest.raises(ParseError):
        parse_config("1 x 2", 3)
    with pytest.raises(ParseError):
        parse_config("1 -2 0", 3)


def test_weighting_text_round_trip():
    b = BinaryWeighting((1, 0, 1))
    assert format_weighting(b) == "1 0 1"
    assert parse_weighting("1 0 1", 3) == b
    with pytest.raises(ParseError):
        parse_weighting("1 2 0", 3)
    with pytest.raises(LengthMismatch):
        parse_weighting("1 0", 3)


def _replayed(replay, g, cert, b=None):
    # the final configuration, or the exception with its index, move
    # object and message
    try:
        return Configuration, replay(g, cert, b)
    except IllegalMoveAt as exc:
        return IllegalMoveAt, exc.index, id(exc.move), str(exc)
    except NotCoveredAtEnd as exc:
        return NotCoveredAtEnd, exc.uncovered, str(exc)


def _assert_replays_agree(g, cert, b=None):
    outcome = _replayed(validate_certificate, g, cert, b)
    assert outcome == _replayed(replay_moves, g, cert, b), (g.edges, cert, b)
    return outcome


def _run_starts(moves):
    return [i for i in range(len(moves)) if i == 0 or moves[i] is not moves[i - 1]]


def _corruptions(rng, g, cert, b):
    # each corrupted copy of a certificate, on a few of its runs
    moves, initial = list(cert.moves), list(cert.initial.counts)
    starts = _run_starts(moves)
    yield Certificate(cert.initial, ())
    for start, end in rng.sample(list(zip(starts, [*starts[1:], len(moves)])), min(3, len(starts))):
        move = moves[start]
        # the run's source short by 1 to 2r + 1 pebbles, or the run cut short at every offset
        for short in range(1, min(initial[move.src], 2 * (end - start) + 1) + 1):
            yield Certificate(Configuration(tuple(c - short * (v == move.src) for v, c in enumerate(initial))), cert.moves)
        for cut in range(start, end):
            yield Certificate(cert.initial, (*moves[:cut], *moves[end:]))
        inside = rng.randrange(start, end)
        for odd in (None, (move.src, move.dst), f"{move.src}->{move.dst}", PebblingMove(move.src, move.dst)):
            # a non-PebblingMove inside the run, or an equal move that is a distinct object
            yield Certificate(cert.initial, (*moves[:inside], odd, *moves[inside + 1:]))
        for bad in (PebblingMove(True, move.dst), PebblingMove(move.src, float(move.dst)),
                    PebblingMove(move.src, next(v for v in range(g.n) if v != move.src and v not in g.adj[move.src]))
                    if len(g.adj[move.src]) < g.n - 1 else PebblingMove(move.src, move.src)):
            # bool and float vertices, and a missing edge, over the whole run or at one move of it
            yield Certificate(cert.initial, (*moves[:start], *[bad] * (end - start), *moves[end:]))
            yield Certificate(cert.initial, (*moves[:inside], bad, *moves[inside + 1:]))
        # the equal distinct object inside a run that then runs dry
        split = (*moves[:inside], PebblingMove(move.src, move.dst), *moves[inside + 1:])
        yield Certificate(Configuration(tuple(c - (v == move.src and c > 0) for v, c in enumerate(initial))), split)


def test_replay_by_runs_agrees_with_the_move_by_move_replay():
    # strategy certificates, their corruptions and random move sequences
    # replay to the same final configuration, or raise the same exception
    # at the same index with the same move object and message
    rng = random.Random(35)
    seen = set()
    for i in range(120):
        n = 6 + i % 7
        g = random_with_diameter(rng, n, 2 + i // 7 % 4)
        if i % 2:
            b = BinaryWeighting(tuple(int(rng.random() < 0.6) for _ in range(n)))
            b = b if b.order else BinaryWeighting((1,) * n)
            c = random_piles(rng, n, weighted_cover_bound(b.order, g.diam) + rng.randrange(3), b.support)
            cert = solve_pigeonhole(g, b, c)
        else:
            b = None
            cert = solve_diameter(g, random_piles(rng, n, diameter_bound(n, g.diam) + rng.randrange(3), range(n)))[0]
        assert _assert_replays_agree(g, cert, b) == (Configuration, validate_certificate(g, cert, b))
        for bad in _corruptions(rng, g, cert, b):
            seen.add(_assert_replays_agree(g, bad, b)[0])
        # random runs of random moves, from random piles
        counts = Configuration(tuple(rng.randrange(9) for _ in range(n)))
        moves = []
        for _ in range(rng.randrange(8)):
            u = rng.randrange(n)
            move = PebblingMove(u, rng.choice(g.adj[u]) if rng.random() < 0.9 else rng.randrange(n))
            moves += [move] * rng.randint(1, 4) + [PebblingMove(move.src, move.dst)] * rng.randrange(2)
        seen.add(_assert_replays_agree(g, Certificate(counts, tuple(moves)))[0])
    assert seen == {Configuration, IllegalMoveAt, NotCoveredAtEnd}


def test_replay_fails_a_run_at_every_offset():
    # a run of r moves 0 -> 1 after p moves 2 -> 1 on P3, with c pebbles on
    # 0: it fails at index p + c // 2 with c % 2 pebbles left, or plays
    for p, r in itertools.product(range(3), range(1, 6)):
        for c in range(2 * r + 2):
            cert = Certificate(Configuration((c, 0, 2 * p)), (PebblingMove(2, 1),) * p + (PebblingMove(0, 1),) * r)
            outcome = _assert_replays_agree(P3, cert, BinaryWeighting((0, 1, 0)))
            if c >= 2 * r:
                assert outcome == (Configuration, Configuration((c - 2 * r, p + r, 0)))
            else:
                assert outcome[:2] == (IllegalMoveAt, p + c // 2)
                assert outcome[3].endswith(f"source holds {c % 2} pebbles")
