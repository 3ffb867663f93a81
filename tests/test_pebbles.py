import itertools

import pytest

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
    format_config,
    format_weighting,
    generate,
    is_covered,
    is_permissible,
    iter_count_vectors,
    parse_config,
    parse_weighting,
    solve,
    stacked,
    validate_certificate,
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
