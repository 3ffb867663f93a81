"""Behavioral invariants of the search engine, checked exhaustively on
the small-graph catalog and by seeded random sampling.

The run_* engines are plain functions so the acceptance suite can rerun
them with its own parameters.
"""

import random

from util import (
    bound_memo,
    connected_graphs,
    labeled_trees,
    order6_tree_representatives,
    random_config,
    small_catalog,
)

from coverpebble import (
    BinaryWeighting,
    Configuration,
    SolveMemo,
    bound_report,
    gamma_exact,
    iter_count_vectors,
    solve,
    stack_cost,
    stacked,
    verify_threshold,
)


def run_dominance_check(case_count: int, seed: int, max_size: int = 8) -> int:
    """Adding pebbles never breaks solvability.  Returns how many sampled
    cases had a solvable base configuration."""
    rng = random.Random(seed)
    catalog = small_catalog(4)
    memos = [SolveMemo() for _ in catalog]
    confirmed = 0
    for _ in range(case_count):
        idx = rng.randrange(len(catalog))
        g = catalog[idx]
        base = random_config(rng, g.n, rng.randint(0, max_size))
        grown = list(base.counts)
        for _ in range(rng.randint(1, 3)):
            grown[rng.randrange(g.n)] += 1
        if solve(g, base, memo=memos[idx]).solvable:
            bigger = Configuration(tuple(grown))
            assert solve(g, bigger, memo=memos[idx]).solvable, (g.edges, base, bigger)
            confirmed += 1
    return confirmed


def run_threshold_monotonic_check(max_size: int = 8) -> int:
    """Once every configuration of some size is solvable, every larger
    size is good too."""
    checks = 0
    for g in small_catalog(4):
        memo = SolveMemo()
        ok_seen = False
        for k in range(max_size + 1):
            result = verify_threshold(g, k, memo=memo)
            if ok_seen:
                assert result.ok, (g.edges, k)
            ok_seen = ok_seen or result.ok
            checks += 1
    return checks


def run_all_ones_check(max_size: int = 6) -> int:
    """Marking every vertex must decide exactly like no weighting at all.
    The two passes use separate memos so the decisions are independent."""
    cases = 0
    for g in small_catalog(4):
        plain_memo = SolveMemo()
        marked_memo = SolveMemo()
        ones = BinaryWeighting((1,) * g.n)
        for k in range(max_size + 1):
            for c in map(Configuration, iter_count_vectors(g.n, k)):
                plain = solve(g, c, memo=plain_memo).solvable
                marked = solve(g, c, ones, memo=marked_memo).solvable
                assert plain == marked, (g.edges, c)
                cases += 1
    return cases


def run_prune_equivalence_check(case_count: int = 300, seed: int = 5) -> int:
    """Pruning must never flip a decision of the search.  The searches
    are called directly, since solve answers most of these
    configurations by a tree pass before the search runs."""
    cases = 0
    for g in small_catalog(3):
        fast = bound_memo(g)
        plain = bound_memo(g, pruning=False)
        for k in range(7):
            for c in iter_count_vectors(g.n, k):
                a = fast._decide(c)[0]
                b = plain._decide(c)[0]
                assert a == b, (g.edges, c)
                cases += 1
    rng = random.Random(seed)
    graphs = connected_graphs(4)
    fast_searches = [bound_memo(g) for g in graphs]
    plain_searches = [bound_memo(g, pruning=False) for g in graphs]
    for _ in range(case_count):
        idx = rng.randrange(len(graphs))
        g = graphs[idx]
        c = random_config(rng, g.n, rng.randint(0, 7)).counts
        a = fast_searches[idx]._decide(c)[0]
        b = plain_searches[idx]._decide(c)[0]
        assert a == b, (g.edges, c)
        cases += 1
    return cases


def test_dominance_monotonic():
    assert run_dominance_check(10_000, seed=17) >= 1000


def test_threshold_monotonic():
    assert run_threshold_monotonic_check() == 44 * 9


def test_all_ones_weighting_matches_unweighted():
    assert run_all_ones_check() >= 8000


def test_pruning_preserves_decisions():
    assert run_prune_equivalence_check() >= 600


def test_gamma_equals_worst_stack_on_small_trees():
    for n in range(1, 5):
        for g in labeled_trees(n):
            report = bound_report(g)
            result = gamma_exact(g)
            assert result.gamma == report.lower_stacked, g.edges
            assert result.gamma <= report.upper_diameter
            assert result.witness.size == result.gamma - 1


def test_gamma_witness_is_the_colex_first_failure():
    # pins the witness independently of the order gamma_exact scans sizes
    # and of the tree pass: a fresh, unpruned search per configuration
    # shares nothing with it
    for g in small_catalog(4):
        result = gamma_exact(g)
        first = next(
            vec
            for vec in iter_count_vectors(g.n, result.gamma - 1)
            if not bound_memo(g, pruning=False)._decide(vec)[0]
        )
        assert result.witness.counts == first, g.edges


def test_gamma_within_bounds_on_a_cyclic_graph():
    for g in connected_graphs(4):
        if len(g.edges) == 4 and g.diam == 2:
            report = bound_report(g)
            result = gamma_exact(g)
            assert report.lower_stacked <= result.gamma <= report.upper_diameter
            break
    else:
        raise AssertionError("catalog lost its 4-edge diameter-2 graphs")


def test_gamma_equals_worst_stack_on_order5_trees():
    for g in labeled_trees(5):
        report = bound_report(g)
        result = gamma_exact(g)
        assert result.gamma == report.lower_stacked, g.edges


def test_gamma_equals_worst_stack_on_order6_trees():
    # gamma_exact answers trees without a scan: the colex prefix search
    # certifies L by one DP and finds the L - 1 witness by one DP per
    # vertex; the search, called directly since solve would answer by
    # the tree pass, refutes the worst stack one pebble short
    # independently of both
    for name, g in order6_tree_representatives():
        formula = bound_report(g).lower_stacked
        worst = max(range(g.n), key=lambda v: stack_cost(g, v))
        assert stack_cost(g, worst) == formula, name
        short = stacked(g, worst, formula - 1).counts
        assert not bound_memo(g)._decide(short)[0], name
        result = gamma_exact(g)
        assert result.gamma == formula, name
        assert result.witness.size == formula - 1, name
