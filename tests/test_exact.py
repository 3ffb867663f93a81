import dataclasses
import itertools
import random

import pytest
from util import (
    connected_classes,
    labeled_trees,
    move_pairs,
    order6_tree_representatives,
    random_composition,
    random_tree,
    small_catalog,
    tree_representatives,
)

from coverpebble import (
    BinaryWeighting,
    BudgetExceeded,
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
    enumerate_configs,
    exact,
    gamma_exact,
    generate,
    iter_count_vectors,
    solve,
    stack_cost,
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


def test_solve_rejects_a_negative_budget():
    w4 = generate(Wheel(4))
    c = Configuration((0, 9, 0, 0, 0))
    with pytest.raises(InvalidSpec):
        solve(w4, c, budget=-5)
    # a zero budget still stops at the first state
    with pytest.raises(BudgetExceeded):
        solve(w4, c, budget=0)


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
            total = composition_count(n, k)
            assert list(iter_count_vectors(n, k)) == full, (n, k)
            assert len(full) == total
            ranges = [
                (0, None),
                (1, None),
                (total // 2, None),
                (total // 3, 2 * total // 3 + 1),
                (total - 1, total),
                (total, total + 5),
                (total + 3, None),
                (4, 2),
                (-3, 2),
            ]
            for start, stop in ranges:
                expected = full[max(start, 0) : stop if stop is None else max(stop, 0)]
                assert list(iter_count_vectors(n, k, start, stop)) == expected, (n, k, start, stop)


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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

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


def test_gamma_single_vertex():
    single = generate(Path(1))
    result = gamma_exact(single)
    assert result.gamma == 1
    assert result.witness.counts == (0,)


def _brute_automorphisms(g):
    edges = set(g.edges)
    found = []
    for p in itertools.permutations(range(g.n)):
        if p != tuple(range(g.n)) and all(
            tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges
        ):
            found.append(p)
    return found


def test_automorphisms_match_brute_force():
    family = [
        generate(Wheel(4)),
        generate(Wheel(5)),
        generate(Multipartite((3, 2))),
        generate(Star(4)),
        generate(Fuse(5, 3)),
    ]
    for g in small_catalog(4) + family:
        assert exact._automorphisms(g) == _brute_automorphisms(g), g.edges


def test_automorphisms_stop_at_the_cap():
    # star 8 has 8! - 1 = 40,319 non-identity automorphisms; the first 64
    # in lexicographic order come back
    star8 = generate(Star(8))
    first = list(
        itertools.islice(
            (p for p in itertools.permutations(range(9)) if p[8] == 8 and p != tuple(range(9))),
            exact._AUT_CAP,
        )
    )
    assert exact._AUT_CAP == 64
    assert exact._automorphisms(star8) == first
    # 20! - 1 automorphisms could never all be listed: the search stops
    assert len(exact._automorphisms(generate(Star(20)))) == 64


def test_orbit_skip_keeps_every_answer(monkeypatch):
    # the reference scan decides every configuration: no automorphisms
    cases = [(g, k, workers) for g in small_catalog(4) for k in range(2, 9) for workers in (1, 2)]
    skipping = [verify_threshold(*case) for case in cases]
    monkeypatch.setattr(exact, "_automorphisms", lambda g: [])
    for case, result in zip(cases, skipping):
        assert result == verify_threshold(*case), (case[0].edges, case[1], case[2])
    assert any(not result.ok for result in skipping)


def _reference_scan(g, k, memo):
    # decides every configuration with the search, sharing one memo
    search = exact._CoverSearch(g, range(g.n), memo=memo)
    for rank, vec in enumerate(iter_count_vectors(g.n, k)):
        if not search.decide(vec)[0]:
            return Configuration(vec), rank + 1
    return None, composition_count(g.n, k)


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
        memo = SolveMemo()
        gamma = bound_report(g).lower_stacked
        for k in (gamma - 1, gamma):
            witness, checked = _reference_scan(g, k, memo)
            assert (witness is None) == (k == gamma), (name, k)
            for workers in (1, 2):
                result = verify_threshold(g, k, workers)
                assert (result.witness, result.configs_checked) == (witness, checked), (name, k, workers)


def test_tree_scan_still_checks_the_memo_binding():
    memo = SolveMemo()
    verify_threshold(W3, 6, memo=memo)
    # a size that passes and one with a witness
    for k in (7, 4):
        with pytest.raises(ValueError):
            verify_threshold(P3, k, memo=memo)


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
        assert not exact._tree_cover_test(g)(result.witness.counts), name


def _pass_scan(g, k):
    # the first vector of size k that the tree pass fails, by a scan of every vector
    solvable = exact._tree_cover_test(g)
    for rank, vec in enumerate(iter_count_vectors(g.n, k)):
        if not solvable(vec):
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
            solvable = exact._tree_cover_test(g)
            search = exact._CoverSearch(g, range(g.n))
            for k in range(bound_report(g).lower_stacked + 2):
                for vec in iter_count_vectors(g.n, k):
                    assert solvable(vec) == search.decide(vec)[0], (g.edges, vec)
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
        solvable = exact._tree_cover_test(g)
        search = exact._CoverSearch(g, range(g.n))
        # refuting one big stack on a deep random tree takes the search
        # seconds, so there the stacks are checked against their cost
        # and the sampled configurations use at least two vertices
        smallest = 1 if g in named else 2
        gamma = bound_report(g).lower_stacked
        for k in range(gamma - 3, gamma + 2):
            for _ in range(40):
                vec = _spread(rng, g.n, k, rng.randint(smallest, g.n))
                answer = search.decide(vec)[0]
                assert solvable(vec) == answer, (g.edges, vec)
                outcomes.add(answer)
            for v in range(g.n):
                assert solvable(stacked(g, v, k).counts) == (k >= stack_cost(g, v)), (g.edges, v, k)
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


def _tree_min_balance(g, k):
    # the least root balance of the pass from root 0, nothing held
    return min(k - j + up for j, up in enumerate(exact._passed_up(g, 0, {}, k)))


def _check_min_balance(trees, sizes):
    # the minimum depends on the tree only through its shape rooted at 0
    brute = {}
    checked = 0
    for g in trees:
        shape = _rooted_shape(g)
        gamma = bound_report(g).lower_stacked
        for k in sizes(gamma):
            if (shape, k) not in brute:
                brute[shape, k] = _brute_min_balance(g, k)
            least = _tree_min_balance(g, k)
            assert least == brute[shape, k], (g.edges, k)
            assert (least >= 1) == (k >= gamma), (g.edges, k)
            checked += 1
    return checked


def test_tree_min_balance_matches_a_brute_force_minimum():
    single = generate(Path(1))
    assert [_tree_min_balance(single, k) for k in range(3)] == [0, 1, 2]
    trees = [g for n in range(1, 6) for g in labeled_trees(n)]
    assert _check_min_balance(trees, lambda gamma: range(gamma + 2)) == 3856


@pytest.mark.slow
def test_tree_min_balance_matches_a_brute_force_minimum_on_order6_trees():
    assert _check_min_balance(labeled_trees(6), lambda gamma: range(26)) == 1296 * 26


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
        trees = [exact._tree_cover_test(g, root) for root in range(g.n)]
        search = exact._CoverSearch(g, range(g.n))
        gamma = bound_report(g).lower_stacked
        sizes = range(gamma + 2) if g.n <= 4 else (gamma - 1,)
        for k in sizes:
            for vec in iter_count_vectors(g.n, k):
                certified = any(passes(vec) for passes in trees)
                if certified or g.n <= 4:
                    solvable = search.decide(vec)[0]
                    assert solvable or not certified, (g.edges, vec)
                    outcomes.add((certified, solvable))
    # the trees certify most solvable vectors, but not all of them
    assert outcomes == {(True, True), (False, True), (False, False)}
