"""Closed-form cover pebbling values and general-purpose bounds.

All values are plain integers computed with integer arithmetic.  The
two closed forms cover complete multipartite graphs and wheels; the
stack costs give the exact value on trees and a lower bound everywhere,
while the diameter bound gives an upper bound on any connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec
from .graphs import Graph, check_class_sizes


def gamma_multipartite(sizes) -> int:
    """Cover pebbling number of the complete multipartite graph with the
    given class sizes (positive, nonincreasing): 4*s1 + 2*(rest) - 3.
    """
    sizes = check_class_sizes(sizes)
    return 4 * sizes[0] + 2 * sum(sizes[1:]) - 3


def gamma_wheel(n: int) -> int:
    """Cover pebbling number of the wheel with n rim vertices: 4n - 5."""
    if n < 3:
        raise InvalidSpec(f"wheel needs at least 3 rim vertices, got {n}")
    return 4 * n - 5


def stack_cost(g: Graph, v: int) -> int:
    """Cost of covering the whole graph from a single stack at v.

    Delivering one pebble across distance h consumes 2**h pebbles, so
    the cost is the sum of 2**dist(u, v) over all vertices u.  The
    maximum over v is a lower bound on the cover pebbling number of any
    connected graph and is exactly the value on trees.
    """
    if not 0 <= v < g.n:
        raise InvalidSpec(f"vertex {v} out of range for order {g.n}")
    return sum(1 << d for d in g.dist[v])


def diameter_bound(n: int, d: int) -> int:
    """Upper bound 2**d * (n - d + 1) - 1 for a connected graph of
    order n and diameter d.  Sharp on fuses."""
    if n < 1 or d < 0 or d > n - 1:
        raise InvalidSpec(f"no connected graph has order {n} and diameter {d}")
    return (1 << d) * (n - d + 1) - 1


def weighted_cover_bound(marked_count: int, d: int) -> int:
    """Size (marked_count - 1) * 2**d + 1 above which every permissible
    configuration can cover the marked vertices, d being the graph
    diameter.  Nonpositive when nothing is marked; callers treat the
    value as a threshold, so that case is trivially met."""
    if marked_count < 0 or d < 0:
        raise InvalidSpec(f"bad arguments marked_count={marked_count}, d={d}")
    return (marked_count - 1) * (1 << d) + 1


@dataclass(frozen=True)
class BoundReport:
    """Sandwich bounds for one graph: lower from the worst stack, upper
    from the diameter formula, plus the per-vertex stack costs."""

    lower_stacked: int
    upper_diameter: int
    stack_costs: tuple[int, ...]


def bound_report(g: Graph) -> BoundReport:
    costs = tuple(stack_cost(g, v) for v in range(g.n))
    return BoundReport(max(costs), diameter_bound(g.n, g.diam), costs)
