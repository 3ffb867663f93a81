"""Immutable graphs with precomputed metrics, plus deterministic
generators for the graph families used throughout the package.

A Graph stores its adjacency lists together with the full table of
hop distances and the diameter, so downstream code never recomputes
shortest paths.  Families are generated with fixed labeling
conventions, documented per constructor, so the same description
always produces the identical labeled graph.
"""

from __future__ import annotations

__all__ = [
    "FamilySpec", "Fuse", "Graph", "Multipartite", "Path", "Star", "Wheel", "build_graph",
    "format_graph_text", "generate", "parse_graph_text",
]

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DisconnectedGraph, InvalidEdge, InvalidSpec, ParseError, check_int

# Largest order build_graph accepts, so also a family or a graph file: a
# Graph keeps an n x n distance table, and no exact check gets near this
# order.
MAX_ORDER = 1_000


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise InvalidSpec(f"graph order {n} is over the limit of {MAX_ORDER}")


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on vertices 0..n-1.

    dist[u][v] is the hop distance from u to v.  Each row is bytes when
    the diameter is below 256, an eighth of a tuple's memory, and a
    tuple of ints otherwise; both index and iterate to ints, so readers
    never tell them apart."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    dist: tuple[Union[bytes, tuple[int, ...]], ...]
    diam: int

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and index an edge list, computing all-pairs distances.

    Edges are normalized to (min, max) order and deduplicated.  Raises
    InvalidEdge for self-loops and where check_int refuses n < 1 or an
    endpoint outside 0..n-1, and DisconnectedGraph when some vertex is
    unreachable.  Fewer than n - 1 distinct edges raise DisconnectedGraph
    before anything of size n is built, so a huge order with few edges
    fails at once.  An order over MAX_ORDER raises InvalidSpec next,
    before the adjacency lists and the n x n distance table are built.
    The distance rows are bytes below diameter 256 and tuples from there
    on, as Graph states.
    """
    normalized = set()
    try:
        check_int(n, "graph order", 1)
        for u, v in edges:
            check_int(u, "edge endpoint", 0, n - 1)
            check_int(v, "edge endpoint", 0, n - 1)
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
    except InvalidSpec as exc:
        raise InvalidEdge(str(exc)) from None
    if len(normalized) < n - 1:
        raise DisconnectedGraph(f"{len(normalized)} edges cannot connect {n} vertices")
    _check_order(n)
    edge_list = tuple(sorted(normalized))

    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_list:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in neighbor_sets)

    dist_rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        # stop once every vertex is reached: on a dense graph that is
        # after a few vertices, not after all n adjacency lists
        left = n - 1
        queue = deque([src])
        while queue and left:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if row[nxt] < 0:
                    row[nxt] = row[cur] + 1
                    queue.append(nxt)
                    left -= 1
        if left:
            missing = row.index(-1)
            raise DisconnectedGraph(f"vertex {missing} is unreachable from vertex {src}")
        dist_rows.append(row)

    diam = max(map(max, dist_rows))
    return Graph(n, edge_list, adj, tuple(map(bytes if diam < 256 else tuple, dist_rows)), diam)


def check_vertex(g: Graph, v: int) -> None:
    """Raise InvalidSpec unless v is a vertex of g, by check_int in 0..n-1."""
    check_int(v, "vertex", 0, g.n - 1)


@dataclass(frozen=True)
class Multipartite:
    """Complete multipartite graph; sizes must be positive and nonincreasing."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))


@dataclass(frozen=True)
class Wheel:
    """Wheel with n rim vertices: hub is vertex 0, rim cycle is 1..n."""

    n: int


@dataclass(frozen=True)
class Fuse:
    """Path of d edges whose far endpoint carries the remaining vertices
    as star points.  Vertex 0 is the free end of the path, vertex d-1 is
    the star center, and vertices d..n-1 are the star points."""

    n: int
    d: int


@dataclass(frozen=True)
class Path:
    """Path on n vertices labeled in order along the path."""

    n: int


@dataclass(frozen=True)
class Star:
    """Star with the given number of leaves; the center gets the last label."""

    leaves: int


FamilySpec = Union[Multipartite, Wheel, Fuse, Path, Star]


def generate(spec: FamilySpec) -> Graph:
    """Construct the labeled graph for a family description.

    The construction is deterministic: equal specs produce equal graphs.
    A star is built as the multipartite graph K(leaves, 1) and a path of
    order at least 2 as the fuse with d = n - 1.  Raises InvalidSpec
    when the parameters violate the family's rules or the order is over
    MAX_ORDER, before any edge list is built; each parameter is checked
    by check_int.
    """
    if isinstance(spec, Star):
        check_int(spec.leaves, "star leaves", 1)
        spec = Multipartite((spec.leaves, 1))
    elif isinstance(spec, Path):
        check_int(spec.n, "path order", 1)
        if spec.n == 1:
            return build_graph(1, [])
        spec = Fuse(spec.n, spec.n - 1)
    if isinstance(spec, Multipartite):
        # the sizes are validated before they are summed
        sizes = check_class_sizes(spec.sizes)
        _check_order(sum(sizes))
        return build_graph(sum(sizes), multipartite_edges(sizes))
    if isinstance(spec, Wheel):
        check_rim(spec.n)
        _check_order(spec.n + 1)
        return build_graph(spec.n + 1, wheel_edges(spec.n))
    if isinstance(spec, Fuse):
        n, d = spec.n, spec.d
        check_int(n, "fuse order", 2)
        check_int(d, "fuse diameter", 1, n - 1)
        _check_order(n)
        edges = [(i, i + 1) for i in range(d - 1)]
        edges += [(d - 1, v) for v in range(d, n)]
        return build_graph(n, edges)
    raise InvalidSpec(f"unknown family spec: {spec!r}")


def check_class_sizes(sizes) -> tuple[int, ...]:
    """Multipartite class sizes as a tuple; raises InvalidSpec unless they
    are a nonempty, nonincreasing list, each of at least 1 by check_int."""
    sizes = tuple(sizes)
    if not sizes:
        raise InvalidSpec("multipartite size list is empty")
    for s in sizes:
        check_int(s, "class size", 1)
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise InvalidSpec(f"class sizes must be nonincreasing, got {list(sizes)}")
    return sizes


def multipartite_edges(sizes) -> tuple[tuple[int, int], ...]:
    """Sorted edge list of the complete multipartite graph with the given
    class sizes.  Classes occupy contiguous index blocks in the order
    given; raises InvalidSpec as check_class_sizes does."""
    sizes = check_class_sizes(sizes)
    n = sum(sizes)
    edges = []
    end = 0
    for s in sizes:
        start, end = end, end + s
        edges += [(u, v) for u in range(start, end) for v in range(end, n)]
    return tuple(edges)


def check_rim(n: int) -> None:
    """Raise InvalidSpec unless a wheel's rim count n is at least 3, by check_int."""
    check_int(n, "wheel rim count", 3)


def wheel_edges(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted edge list of the wheel with n rim vertices: hub 0 joined to
    every rim vertex, rim cycle 1..n; raises InvalidSpec as check_rim
    does."""
    check_rim(n)
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(1, 2), (1, n)]
    edges += [(i, i + 1) for i in range(2, n)]
    return tuple(edges)


def format_graph_text(g: Graph) -> str:
    """Serialize as a header line `n m` followed by one `u v` line per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """Parse the `n m` / `u v` format.  `#` starts a comment that runs to
    the end of its line; lines left blank are ignored.

    Raises ParseError with a 1-based line number on malformed input and
    InvalidSpec, before the edges are read, when the header's order is
    over MAX_ORDER; edge validation errors propagate from build_graph.
    """
    rows: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.partition("#")[0].strip()
        if stripped:
            rows.append((line_no, stripped))
    if not rows:
        raise ParseError("no data lines in graph text")
    head_no, head = rows[0]
    head_parts = head.split()
    if len(head_parts) != 2:
        raise ParseError("expected header `n m`", head_no)
    try:
        n, m = int(head_parts[0]), int(head_parts[1])
    except ValueError:
        raise ParseError("header values must be integers", head_no) from None
    _check_order(n)
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1}", head_no)
    edges = []
    for line_no, row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ParseError("expected edge line `u v`", line_no)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError("edge endpoints must be integers", line_no) from None
    return build_graph(n, edges)
