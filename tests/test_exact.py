import dataclasses
import itertools

import pytest
from util import move_pairs

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
    Configuration,
    InternalAssertion,
    InvalidSpec,
    LengthMismatch,
    Multipartite,
    Path,
    SolveMemo,
    Wheel,
    composition_count,
    enumerate_configs,
    exact,
    gamma_exact,
    generate,
    iter_count_vectors,
    solve,
    stacked,
    validate_certificate,
    verify_threshold,
)

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
    with pytest.raises(BudgetExceeded):
        solve(generate(Wheel(5)), stacked(generate(Wheel(5)), 1, 20), budget=3)
    # a generous budget changes nothing
    out = solve(K2, Configuration((3, 0)), budget=10_000)
    assert out.solvable


def test_solve_memo_reuse_guard():
    memo = SolveMemo()
    solve(P3, Configuration((1, 1, 1)), memo=memo)
    solve(P3, Configuration((2, 1, 1)), memo=memo)
    with pytest.raises(ValueError):
        solve(K2, Configuration((1, 1)), memo=memo)


def test_enumerate_examples():
    assert [c.counts for c in enumerate_configs(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert sum(1 for _ in enumerate_configs(4, 7)) == 120
    assert composition_count(4, 7) == 120
    assert [c.counts for c in enumerate_configs(1, 5)] == [(5,)]
    assert [c.counts for c in enumerate_configs(3, 0)] == [(0, 0, 0)]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(InvalidSpec):
        list(enumerate_configs(0, 2))
    with pytest.raises(InvalidSpec):
        list(enumerate_configs(2, -1))


def test_enumeration_is_colex_sorted_and_complete():
    for n in range(1, 5):
        for k in range(7):
            vecs = list(iter_count_vectors(n, k))
            assert len(vecs) == composition_count(n, k)
            assert len(set(vecs)) == len(vecs)
            assert all(sum(v) == k and len(v) == n for v in vecs)
            assert vecs == sorted(vecs, key=lambda v: v[::-1])
            assert vecs[0] == (k,) + (0,) * (n - 1)


def test_enumeration_range_slices_agree():
    for n, k in [(3, 5), (4, 6), (5, 4)]:
        full = list(iter_count_vectors(n, k))
        total = composition_count(n, k)
        for parts in (2, 3, 7):
            bounds = [i * total // parts for i in range(parts + 1)]
            joined = []
            for i in range(parts):
                joined.extend(iter_count_vectors(n, k, bounds[i], bounds[i + 1]))
            assert joined == full
        assert list(iter_count_vectors(n, k, 5, 5)) == []
        assert list(iter_count_vectors(n, k, total - 1, total + 10)) == [full[-1]]


def test_verify_threshold_examples():
    assert verify_threshold(W3, 7).ok
    assert verify_threshold(W3, 7).configs_checked == 120

    below = verify_threshold(W3, 6)
    assert not below.ok
    # colex-first witness is the hub stack
    assert below.witness.counts == (6, 0, 0, 0)
    assert below.configs_checked == 1

    assert verify_threshold(K2, 3).ok


def test_verify_threshold_worker_determinism():
    for k in (6, 7):
        baseline = verify_threshold(W3, k, 1)
        for workers in (2, 3, 8):
            again = verify_threshold(W3, k, workers)
            assert again == baseline


def test_verify_threshold_caps_threads_not_chunks(monkeypatch):
    started = []

    class RecordingPool:
        # runs the chunks in order on the calling thread
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(exact, "ThreadPoolExecutor", RecordingPool)
    for cpus, expected in ((2, 2), (None, 1)):
        monkeypatch.setattr(exact.os, "cpu_count", lambda: cpus)
        for k in (6, 7):
            assert verify_threshold(W3, k, 64) == verify_threshold(W3, k, 1)
            assert started.pop() == expected
        assert started == []


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


def _shift_stack_bound(monkeypatch, delta):
    real = exact.bound_report

    def shifted(g):
        report = real(g)
        return dataclasses.replace(report, lower_stacked=report.lower_stacked + delta)

    monkeypatch.setattr(exact, "bound_report", shifted)


def test_gamma_steps_up_from_a_low_start(monkeypatch):
    # a start below the worst stack cost must still land on the same
    # value and witness
    plain = gamma_exact(P3)
    _shift_stack_bound(monkeypatch, -2)
    stepped = gamma_exact(P3)
    assert (stepped.gamma, stepped.witness) == (plain.gamma, plain.witness)
    assert stepped.configs_checked > plain.configs_checked


def test_gamma_rejects_a_passing_size_below_the_stack_bound(monkeypatch):
    _shift_stack_bound(monkeypatch, 1)
    with pytest.raises(InternalAssertion):
        gamma_exact(P3)


def test_gamma_single_vertex():
    single = generate(Path(1))
    result = gamma_exact(single)
    assert result.gamma == 1
    assert result.witness.counts == (0,)
