"""Closed-form cover pebbling values and general-purpose bounds.

All values are plain integers computed with integer arithmetic.  The
two closed forms cover complete multipartite graphs and wheels; the
stack costs give the exact value on trees and a lower bound everywhere,
while the diameter bound gives an upper bound on any connected graph.
"""

from __future__ import annotations

__all__ = [
    "BoundReport", "bound_report", "diameter_bound", "gamma_multipartite", "gamma_wheel",
    "stack_cost", "weighted_cover_bound",
]

from dataclasses import dataclass

from .errors import check_int
from .graphs import Graph, check_class_sizes, check_rim, check_vertex


def gamma_multipartite(sizes) -> int:
    """Cover pebbling number of the complete multipartite graph with the
    given class sizes (positive, nonincreasing): 4*s1 + 2*(rest) - 3.
    """
    sizes = check_class_sizes(sizes)
    return 4 * sizes[0] + 2 * sum(sizes[1:]) - 3


def gamma_wheel(n: int) -> int:
    """Cover pebbling number of the wheel with n rim vertices: 4n - 5."""
    check_rim(n)
    return 4 * n - 5


def stack_cost(g: Graph, v: int) -> int:
    """Cost of covering the whole graph from a single stack at v.

    Delivering one pebble across distance h consumes 2**h pebbles, so
    the cost is the sum of 2**dist(u, v) over all vertices u.  The
    maximum over v is a lower bound on the cover pebbling number of any
    connected graph and is exactly the value on trees.
    """
    check_vertex(g, v)
    return sum(1 << d for d in g.dist[v])


def diameter_bound(n: int, d: int) -> int:
    """Upper bound 2**d * (n - d + 1) - 1 for a connected graph of
    order n and diameter d; check_int refuses n < 1 and d outside 0..n-1.

    Where it is attained: from a vertex v of eccentricity e <= d, the
    BFS layers have sizes s_0 = 1 and s_1, ..., s_e >= 1 summing to n,
    and v's stack cost is the sum of s_i * 2**i.  Moving a vertex to a
    deeper layer raises that sum, so it is largest, and equal to the
    bound, only when e = d and the layers have sizes 1, ..., 1, n - d.
    Every vertex of the last layer then has the one vertex of layer
    d - 1 as its only neighbour nearer v, and edges join only equal or
    adjacent layers.  So a stack cost meets the bound exactly on
    fuse(n, d), v being its free end, with any graph on its n - d star
    points; for d >= 2 each such graph has diameter d, and since the
    stack cost is a lower bound, the cover pebbling number equals the
    bound on it.  At d = 1 the only graph is K_n.
    """
    check_int(n, "order", 1)
    check_int(d, "diameter", 0, n - 1)
    return (1 << d) * (n - d + 1) - 1


def weighted_cover_bound(marked_count: int, d: int) -> int:
    """Size (marked_count - 1) * 2**d + 1 above which every permissible
    configuration can cover the marked vertices, d being the graph
    diameter.  Nonpositive when nothing is marked; callers treat the
    value as a threshold, so that case is trivially met.  check_int
    refuses a negative argument."""
    check_int(marked_count, "marked_count")
    check_int(d, "d")
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
