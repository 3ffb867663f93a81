"""Acceptance gate: eight end-to-end criteria over closed forms, the
exhaustive oracle, the constructive solvers, and the engine properties.

Each test records a criterion label first, so the terminal summary in
conftest.py always emits one PASS/FAIL line per criterion, then asserts
exact values and its runtime budget.
"""

import random
import time

from test_properties import (
    run_all_ones_check,
    run_dominance_check,
    run_threshold_monotonic_check,
    run_worker_determinism_check,
)
from util import (
    all_weightings,
    connected_classes,
    random_composition,
    random_config,
    small_catalog,
    tree_representatives,
)

from coverpebble import (
    BinaryWeighting,
    Configuration,
    Fuse,
    Multipartite,
    SolveMemo,
    Wheel,
    diameter_bound,
    enumerate_configs,
    gamma_exact,
    gamma_multipartite,
    gamma_wheel,
    generate,
    is_permissible,
    iter_count_vectors,
    solve,
    solve_diameter,
    solve_multipartite,
    solve_pigeonhole,
    solve_wheel,
    stack_cost,
    stacked,
    validate_certificate,
    weighted_cover_bound,
)


def test_criterion_1_wheel_closed_form(record_property):
    record_property("criterion", "criterion 1: wheel gamma values")
    started = time.perf_counter()
    values = {}
    for n in (3, 4, 5):
        result = gamma_exact(generate(Wheel(n)))
        assert result.gamma == gamma_wheel(n) == 4 * n - 5
        assert result.witness.size == result.gamma - 1
        values[n] = result.gamma
    elapsed = time.perf_counter() - started
    assert values == {3: 7, 4: 11, 5: 15}
    assert elapsed < 30.0
    record_property(
        "criterion",
        f"criterion 1: wheel gamma values 7, 11, 15 ({elapsed:.1f}s, budget 30s)",
    )


def test_criterion_2_multipartite_closed_form(record_property):
    record_property("criterion", "criterion 2: multipartite gamma values")
    started = time.perf_counter()
    expected = {
        (1, 1): 3,
        (2, 1): 7,
        (1, 1, 1): 5,
        (2, 2): 9,
        (2, 1, 1): 9,
        (3, 1): 11,
    }
    for sizes, value in expected.items():
        result = gamma_exact(generate(Multipartite(sizes)))
        assert result.gamma == gamma_multipartite(sizes) == value, sizes
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    record_property(
        "criterion",
        "criterion 2: multipartite gamma values 3, 7, 5, 9, 9, 11"
        f" ({elapsed:.1f}s, budget 60s)",
    )


def test_criterion_3_tree_formula(record_property):
    record_property("criterion", "criterion 3: tree gamma equals worst stack cost")
    started = time.perf_counter()
    names = []
    for name, g in tree_representatives():
        formula = max(stack_cost(g, v) for v in range(g.n))
        result = gamma_exact(g)
        assert result.gamma == formula, name
        names.append(name)
    elapsed = time.perf_counter() - started
    assert len(names) == 8
    assert elapsed < 60.0
    record_property(
        "criterion",
        "criterion 3: tree gamma equals worst stack cost on all 8 shapes"
        f" up to order 5 ({elapsed:.1f}s, budget 60s)",
    )


def test_criterion_4_diameter_bound_sharpness(record_property):
    record_property("criterion", "criterion 4: diameter bound sharp on the order-5 fuse")
    started = time.perf_counter()
    g = generate(Fuse(5, 3))
    result = gamma_exact(g)
    assert result.gamma == 23 == diameter_bound(5, 3)
    assert not solve(g, stacked(g, 0, 22)).solvable
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    record_property(
        "criterion",
        "criterion 4: diameter bound sharp on the order-5 fuse, gamma 23,"
        f" 22-stack unsolvable ({elapsed:.1f}s, budget 120s)",
    )


def test_criterion_5_gamma_equals_worst_stack(record_property):
    record_property("criterion", "criterion 5: gamma equals worst stack cost up to order 5")
    started = time.perf_counter()
    labelled = small_catalog(4)
    classes = connected_classes(5)
    for g in labelled + list(classes):
        worst = max(stack_cost(g, v) for v in range(g.n))
        result = gamma_exact(g)
        assert result.gamma == worst, g.edges
        assert result.witness.size == worst - 1, g.edges
    elapsed = time.perf_counter() - started
    assert (len(labelled), len(classes)) == (44, 21)
    assert elapsed < 600.0
    record_property(
        "criterion",
        f"criterion 5: gamma equals worst stack cost on all {len(labelled)}"
        f" connected graphs up to order 4 and all {len(classes)} of order 5"
        f" up to isomorphism ({elapsed:.1f}s, budget 600s)",
    )


def test_criterion_6_weighted_threshold(record_property):
    record_property("criterion", "criterion 6: weighted threshold always solvable")
    started = time.perf_counter()
    cases = 0
    for g in small_catalog(4):
        for b in all_weightings(g.n, min_order=1):
            size = weighted_cover_bound(b.order, g.diam)
            memo = SolveMemo()
            for vec in iter_count_vectors(b.order, size):
                spread = [0] * g.n
                for v, count in zip(b.support, vec):
                    spread[v] = count
                c = Configuration(tuple(spread))
                assert is_permissible(c, b)
                assert solve(g, c, b, memo=memo).solvable, (g.edges, b.marks, c.counts)
                cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    record_property(
        "criterion",
        f"criterion 6: every permissible threshold-size configuration solvable,"
        f" {cases} cases over all weightings up to order 4"
        f" ({elapsed:.1f}s, budget 600s)",
    )


def test_criterion_7_constructive_validity(record_property):
    record_property("criterion", "criterion 7: constructive certificates validate")
    started = time.perf_counter()
    w3 = generate(Wheel(3))
    wheel_cases = 0
    for c in enumerate_configs(4, 7):
        validate_certificate(w3, solve_wheel(w3, c))
        wheel_cases += 1
    assert wheel_cases == 120

    k22 = generate(Multipartite((2, 2)))
    multi_cases = 0
    for c in enumerate_configs(4, 9):
        validate_certificate(k22, solve_multipartite(k22, (2, 2), c))
        multi_cases += 1
    assert multi_cases == 220

    rng = random.Random(97)
    random_cases = 0
    for g in (generate(Fuse(6, 3)), generate(Wheel(6))):
        size = diameter_bound(g.n, g.diam)
        for _ in range(1000):
            cert, _ = solve_diameter(g, random_config(rng, g.n, size))
            validate_certificate(g, cert)
            random_cases += 1
        for _ in range(1000):
            marks = tuple(rng.randint(0, 1) for _ in range(g.n))
            if not any(marks):
                forced = rng.randrange(g.n)
                marks = tuple(1 if v == forced else 0 for v in range(g.n))
            b = BinaryWeighting(marks)
            spread = [0] * g.n
            parts = random_composition(rng, weighted_cover_bound(b.order, g.diam), b.order)
            for v, count in zip(b.support, parts):
                spread[v] = count
            cert = solve_pigeonhole(g, b, Configuration(tuple(spread)))
            validate_certificate(g, cert, b)
            random_cases += 1
    elapsed = time.perf_counter() - started
    assert random_cases == 4000
    assert elapsed < 300.0
    record_property(
        "criterion",
        "criterion 7: constructive certificates validate (120 wheel, 220"
        f" multipartite, 4000 random) ({elapsed:.1f}s, budget 300s)",
    )


def test_criterion_8_property_suite(record_property):
    record_property("criterion", "criterion 8: engine property suite")
    started = time.perf_counter()
    dominance = run_dominance_check(10_000, seed=29, max_size=8)
    assert dominance >= 1000
    monotonic = run_threshold_monotonic_check(max_size=8)
    assert monotonic == 44 * 9
    equivalence = run_all_ones_check(max_size=8)
    assert equivalence >= 10_000
    determinism = run_worker_determinism_check(
        worker_counts=(2, 8), sizes=tuple(range(9)), stride=1
    )
    assert determinism > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    record_property(
        "criterion",
        "criterion 8: dominance, threshold monotonicity, all-ones"
        " equivalence, worker determinism"
        f" ({dominance} dominant pairs, {equivalence} equivalence cases,"
        f" {elapsed:.1f}s, budget 300s)",
    )
