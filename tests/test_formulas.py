import types

import pytest

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


def test_oracle_cross_checks():
    assert gamma_exact(generate(Multipartite((1, 1)))).gamma == gamma_multipartite((1, 1))
    p3 = generate(Path(3))
    assert gamma_exact(p3).gamma == stack_cost(p3, 0)


def test_package_exports_every_public_name():
    public = {
        name
        for name, value in vars(coverpebble).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(coverpebble.__all__)
