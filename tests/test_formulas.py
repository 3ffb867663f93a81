import types
from collections import Counter

import pytest
from util import connected_classes

import coverpebble
from coverpebble import (
    Fuse,
    InvalidSpec,
    Multipartite,
    Path,
    Star,
    Wheel,
    bound_report,
    build_graph,
    diameter_bound,
    gamma_exact,
    gamma_multipartite,
    gamma_wheel,
    generate,
    stack_cost,
    weighted_cover_bound,
)


def test_gamma_multipartite_values():
    assert gamma_multipartite((3, 2, 1)) == 15
    assert gamma_multipartite((2, 1)) == 7
    assert gamma_multipartite((1, 1)) == 3
    assert gamma_multipartite((2, 2)) == 9
    assert gamma_multipartite((1,)) == 1


def test_gamma_multipartite_star_agrees_with_leaf_stack():
    # a star is the multipartite graph [s, 1]; its value is 4s - 1
    for s in range(1, 6):
        assert gamma_multipartite((s, 1)) == 4 * s - 1
        g = generate(Star(s))
        assert stack_cost(g, 0) == 4 * s - 1


def test_gamma_multipartite_rejects_bad_sizes():
    with pytest.raises(InvalidSpec):
        gamma_multipartite((1, 2))
    with pytest.raises(InvalidSpec):
        gamma_multipartite(())
    with pytest.raises(InvalidSpec):
        gamma_multipartite((2, 0))


def test_gamma_wheel_values():
    assert gamma_wheel(3) == 7
    assert gamma_wheel(4) == 11
    assert gamma_wheel(6) == 19
    # the 3-wheel is the complete graph on 4 vertices
    assert gamma_wheel(3) == gamma_multipartite((1, 1, 1, 1))
    with pytest.raises(InvalidSpec):
        gamma_wheel(2)


def test_stack_cost_examples():
    single = build_graph(1, [])
    assert stack_cost(single, 0) == 1
    p3 = generate(Path(3))
    assert stack_cost(p3, 0) == 7
    assert stack_cost(p3, 1) == 5
    s3 = generate(Star(3))
    assert stack_cost(s3, 0) == 11
    with pytest.raises(InvalidSpec):
        stack_cost(p3, 3)


def test_diameter_bound_values():
    assert diameter_bound(5, 3) == 23
    assert diameter_bound(7, 4) == 63
    for n in range(2, 6):
        assert diameter_bound(n, 1) == 2 * n - 1
        assert diameter_bound(n, 1) == gamma_multipartite((1,) * n)
    for n in range(2, 6):
        assert diameter_bound(n, n - 1) == 2**n - 1
        assert diameter_bound(n, n - 1) == stack_cost(generate(Path(n)), 0)
    with pytest.raises(InvalidSpec):
        diameter_bound(3, 3)


def test_weighted_cover_bound_values():
    for d in range(5):
        assert weighted_cover_bound(1, d) == 1
    assert weighted_cover_bound(4, 2) == 13
    assert weighted_cover_bound(0, 3) == -7
    with pytest.raises(InvalidSpec):
        weighted_cover_bound(-1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_wheel(4.0),
        lambda: gamma_wheel(True),
        lambda: gamma_wheel("4"),
        lambda: gamma_multipartite((3, True)),
        lambda: gamma_multipartite((3.0, 2)),
        lambda: gamma_multipartite(("3", 2)),
        lambda: diameter_bound(5.0, 2),
        lambda: diameter_bound(5, True),
        lambda: diameter_bound(True, 0),
        lambda: diameter_bound("5", 2),
        lambda: weighted_cover_bound(True, 2),
        lambda: weighted_cover_bound(3, 2.0),
        lambda: weighted_cover_bound(3, True),
        lambda: weighted_cover_bound("3", 2),
    ],
    ids=["wheel-float", "wheel-bool", "wheel-string", "multipartite-bool", "multipartite-float",
         "multipartite-string", "diameter-float", "diameter-bool", "diameter-bool-order",
         "diameter-string", "weighted-bool", "weighted-float", "weighted-bool-diameter",
         "weighted-string"],
)
def test_closed_forms_refuse_arguments_that_are_not_ints(call):
    # gamma_wheel(4.0) used to return 11.0 and gamma_multipartite((3, True)) 11
    with pytest.raises(InvalidSpec):
        call()


def test_bound_report_fuse_sharpness():
    report = bound_report(generate(Fuse(7, 4)))
    assert report.upper_diameter == 63
    assert report.lower_stacked == 63
    assert report.stack_costs[0] == 63


def test_bound_report_consistency():
    for spec in [Multipartite((2, 2)), Wheel(5), Fuse(6, 3), Path(4)]:
        g = generate(spec)
        report = bound_report(g)
        assert report.lower_stacked == max(report.stack_costs)
        assert report.lower_stacked <= report.upper_diameter
        assert len(report.stack_costs) == g.n


def test_fuse_bounds_are_sharp_everywhere():
    # the free end of the stem is the costliest stack on every fuse
    for n in range(2, 11):
        for d in range(1, n):
            report = bound_report(generate(Fuse(n, d)))
            assert report.lower_stacked == report.upper_diameter, (n, d)


def test_diameter_bound_is_attained_on_fuses_with_any_graph_on_the_star_points():
    # the classes whose worst stack cost meets the bound number as many as
    # the graphs on the n - d star points (OEIS A000088: 1, 2, 4, 11 on 1
    # to 4 vertices), and at d = 1 only K_n attains it
    graphs_on = {1: 1, 2: 2, 3: 4, 4: 11}
    attaining = Counter()
    for n in range(2, 7):
        for g in connected_classes(n):
            bound = diameter_bound(n, g.diam)
            costs = bound_report(g).stack_costs
            if max(costs) < bound:
                continue
            attaining[n, g.diam] += 1
            worst = costs.index(bound)
            layers = [g.dist[worst].count(i) for i in range(g.diam + 1)]
            assert layers == [1] * g.diam + [n - g.diam], g.edges
            assert gamma_exact(g).gamma == bound, g.edges
    expected = {(n, d): graphs_on[n - d] if d >= 2 else 1 for n in range(2, 7) for d in range(1, n)}
    assert attaining == expected


def test_oracle_cross_checks():
    assert gamma_exact(generate(Multipartite((1, 1)))).gamma == gamma_multipartite((1, 1))
    p3 = generate(Path(3))
    assert gamma_exact(p3).gamma == stack_cost(p3, 0)


def test_oracle_matches_closed_forms_on_order_6_families():
    for g, formula in (
        (generate(Wheel(6)), gamma_wheel(6)),
        (generate(Multipartite((3, 3))), gamma_multipartite((3, 3))),
    ):
        result = gamma_exact(g)
        assert result.gamma == formula
        assert result.witness.size == formula - 1


def test_package_exports_every_public_name():
    public = {
        name
        for name, value in vars(coverpebble).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(coverpebble.__all__)
    assert len(coverpebble.__all__) == len(set(coverpebble.__all__))
