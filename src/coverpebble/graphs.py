"""Immutable graphs with precomputed metrics, plus deterministic
generators for the graph families used throughout the package.

A Graph stores its adjacency lists together with the full table of
hop distances and the diameter, so downstream code never recomputes
shortest paths.  Families are generated with fixed labeling
conventions, documented per constructor, so the same description
always produces the identical labeled graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DisconnectedGraph, InvalidEdge, InvalidSpec, ParseError


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    dist: tuple[tuple[int, ...], ...]
    diam: int

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and index an edge list, computing all-pairs distances.

    Edges are normalized to (min, max) order and deduplicated.  Raises
    InvalidEdge for self-loops or out-of-range endpoints and
    DisconnectedGraph when some vertex is unreachable.
    """
    if n < 1:
        raise InvalidEdge(f"graph order must be at least 1, got {n}")
    normalized = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        normalized.add((u, v) if u < v else (v, u))
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
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if row[nxt] < 0:
                    row[nxt] = row[cur] + 1
                    queue.append(nxt)
        if -1 in row:
            missing = row.index(-1)
            raise DisconnectedGraph(f"vertex {missing} is unreachable from vertex {src}")
        dist_rows.append(tuple(row))

    diam = max(max(row) for row in dist_rows)
    return Graph(n, edge_list, adj, tuple(dist_rows), diam)


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
    Raises InvalidSpec when the parameters violate the family's rules.
    """
    if isinstance(spec, Multipartite):
        return _gen_multipartite(spec.sizes)
    if isinstance(spec, Wheel):
        return _gen_wheel(spec.n)
    if isinstance(spec, Fuse):
        return _gen_fuse(spec.n, spec.d)
    if isinstance(spec, Path):
        return _gen_path(spec.n)
    if isinstance(spec, Star):
        return _gen_star(spec.leaves)
    raise InvalidSpec(f"unknown family spec: {spec!r}")


def check_class_sizes(sizes) -> tuple[int, ...]:
    """Multipartite class sizes as a tuple; raises InvalidSpec unless
    they are a nonempty, nonincreasing list of positive integers."""
    sizes = tuple(sizes)
    if not sizes:
        raise InvalidSpec("multipartite size list is empty")
    for s in sizes:
        if not isinstance(s, int) or s < 1:
            raise InvalidSpec(f"class sizes must be positive integers, got {s!r}")
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


def wheel_edges(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted edge list of the wheel with n rim vertices: hub 0 joined to
    every rim vertex, rim cycle 1..n."""
    if n < 3:
        raise InvalidSpec(f"wheel needs at least 3 rim vertices, got {n}")
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(1, 2), (1, n)]
    edges += [(i, i + 1) for i in range(2, n)]
    return tuple(edges)


def _gen_multipartite(sizes: tuple[int, ...]) -> Graph:
    # the builder validates the sizes before they are summed
    edges = multipartite_edges(sizes)
    return build_graph(sum(sizes), edges)


def _gen_wheel(n: int) -> Graph:
    return build_graph(n + 1, wheel_edges(n))


def _gen_fuse(n: int, d: int) -> Graph:
    if not 1 <= d <= n - 1:
        raise InvalidSpec(f"fuse needs 1 <= d <= n-1, got n={n}, d={d}")
    edges = [(i, i + 1) for i in range(d - 1)]
    center = d - 1
    edges += [(center, v) for v in range(d, n)]
    return build_graph(n, edges)


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec(f"path needs at least 1 vertex, got {n}")
    if n == 1:
        return build_graph(1, [])
    return _gen_fuse(n, n - 1)


def _gen_star(leaves: int) -> Graph:
    if leaves < 1:
        raise InvalidSpec(f"star needs at least 1 leaf, got {leaves}")
    return _gen_multipartite((leaves, 1))


def eccentricity_profile(g: Graph) -> list[tuple[int, int]]:
    """Pairs (vertex, eccentricity) for every vertex, in label order."""
    return [(v, max(g.dist[v])) for v in range(g.n)]


def format_graph_text(g: Graph) -> str:
    """Serialize as a header line `n m` followed by one `u v` line per edge."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """Parse the `n m` / `u v` format; `#` lines and blank lines are ignored.

    Raises ParseError with a 1-based line number on malformed input;
    edge validation errors propagate from build_graph.
    """
    rows: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
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
