import contextlib
import hashlib
import io
import random
import sys
import time

import pytest
from util import connected_classes, random_graph

from coverpebble import (
    DisconnectedGraph,
    Fuse,
    InvalidEdge,
    InvalidSpec,
    Multipartite,
    ParseError,
    Path,
    Star,
    Wheel,
    build_graph,
    composition_count,
    format_graph_text,
    generate,
    iter_count_vectors,
    parse_graph_text,
    shortest_path,
    stack_cost,
    stacked,
)
from coverpebble.cli import run_cli
from coverpebble.graphs import multipartite_edges, wheel_edges


def test_build_single_edge():
    g = build_graph(2, [(0, 1)])
    assert g.diam == 1
    assert g.edges == ((0, 1),)
    assert g.adj == ((1,), (0,))


def test_build_path_distances():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.dist[0][2] == 2
    assert g.dist[2][0] == 2
    assert g.diam == 2


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_rejects_an_unreachable_vertex():
    # three edges pass the edge count on four vertices, but miss vertex 3
    with pytest.raises(DisconnectedGraph, match="vertex 3 is unreachable"):
        build_graph(4, [(0, 1), (1, 2), (0, 2)])


def test_build_stops_each_bfs_once_every_vertex_is_reached():
    # K(500, 499) has 249,500 edges; a BFS from each of its 999 vertices
    # that scans every adjacency list takes over 10 s
    started = time.perf_counter()
    g = generate(Multipartite((500, 499)))
    assert time.perf_counter() - started < 3.0
    assert g.diam == 2
    assert (g.dist[0][1], g.dist[0][500], g.dist[998][500]) == (2, 1, 2)


def test_build_rejects_too_few_edges_at_once():
    # a billion vertices with no edge: rejected before any per-vertex table
    started = time.perf_counter()
    with pytest.raises(DisconnectedGraph):
        build_graph(10**9, [])
    assert time.perf_counter() - started < 0.1


def test_build_rejects_an_order_over_the_cap_at_once():
    # a connected path one vertex over the cap: rejected before the
    # adjacency lists and the n x n distance table are built
    started = time.perf_counter()
    with pytest.raises(InvalidSpec, match="over the limit of 1000"):
        build_graph(1001, [(v, v + 1) for v in range(1000)])
    assert time.perf_counter() - started < 0.1


def test_build_rejects_bad_edges():
    with pytest.raises(InvalidEdge):
        build_graph(3, [(0, 3)])
    with pytest.raises(InvalidEdge):
        build_graph(3, [(1, 1)])
    with pytest.raises(InvalidEdge):
        build_graph(0, [])


@pytest.mark.parametrize(
    "n, edges",
    [(2, [(0, True)]), (True, []), (2.0, [(0, 1)]), (2, [(0, 1.0)]), ("2", [(0, 1)])],
    ids=["bool-endpoint", "bool-order", "float-order", "float-endpoint", "string-order"],
)
def test_build_refuses_orders_and_endpoints_that_are_not_ints(n, edges):
    # a bool endpoint or order used to build a graph that format_graph_text
    # wrote as "True", which parse_graph_text refuses; the others raised
    # TypeError
    with pytest.raises(InvalidEdge):
        build_graph(n, edges)


def test_build_deduplicates_and_normalizes():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_dist_table_shape():
    for g in [generate(Wheel(4)), generate(Fuse(6, 3)), generate(Multipartite((2, 2, 1)))]:
        for u in range(g.n):
            assert g.dist[u][u] == 0
            for v in range(g.n):
                assert g.dist[u][v] == g.dist[v][u]
                assert (g.dist[u][v] == 1) == ((min(u, v), max(u, v)) in g.edges)
                for w in range(g.n):
                    assert g.dist[u][w] <= g.dist[u][v] + g.dist[v][w]
        assert g.diam == max(max(row) for row in g.dist)


def _floyd_warshall(n, edges):
    # an independent reference for the distance table: relax every pair
    # through every middle vertex
    d = [[0 if u == v else n for v in range(n)] for u in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if d[u][w] + d[w][v] < d[u][v]:
                    d[u][v] = d[u][w] + d[w][v]
    return tuple(map(tuple, d))


def test_dist_rows_are_bytes_below_diameter_256_and_match_floyd_warshall():
    rng = random.Random(25)
    for _ in range(120):
        n = rng.randint(1, 24)
        g = random_graph(rng, n)
        assert tuple(map(tuple, g.dist)) == _floyd_warshall(n, g.edges), g.edges
        assert all(type(row) is bytes for row in g.dist), g.edges
    # the largest diameter that still fits a byte
    g = generate(Path(256))
    assert g.diam == 255 and type(g.dist[0]) is bytes and g.dist[0][255] == 255


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(argv) == 0
    return out.getvalue()


def test_path_300_keeps_tuple_rows_and_its_cli_output():
    # diameter 299 does not fit a byte; gen and bound print what they
    # printed when every row was a tuple (sha256 of the whole output)
    g = generate(Path(300))
    assert g.diam == 299
    assert all(type(row) is tuple for row in g.dist)
    assert tuple(map(tuple, g.dist)) == tuple(tuple(abs(u - v) for v in range(300)) for u in range(300))
    digests = {
        "gen": "865c317b97f6837f32782b9f63d291962d0c8e755db3eaf635d6634cb40496d4",
        "bound": "b14de92d32ae5c158fc9289a2b3e6f504198cdda80cb8563ea0898b392fec048",
    }
    for command, digest in digests.items():
        out = _cli_output([command, "--family", "path", "--n", "300"])
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_wheel_999_distance_rows_take_under_one_and_a_half_mib():
    # a million entries: 7.68 MiB as tuples of ints, about 0.99 MiB as bytes
    g = generate(Wheel(999))
    assert sum(map(sys.getsizeof, g.dist)) < 1.5 * 2**20


P3 = generate(Path(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: stacked(P3, 1.0, 2),
        lambda: stacked(P3, True, 2),
        lambda: stacked(P3, "1", 2),
        lambda: stack_cost(P3, 1.0),
        lambda: stack_cost(P3, True),
        lambda: stack_cost(P3, "1"),
        lambda: shortest_path(P3, 0, 5),
        lambda: shortest_path(P3, -1, 2),
        lambda: shortest_path(P3, True, 2),
        lambda: shortest_path(P3, 0, True),
        lambda: shortest_path(P3, "0", 2),
        lambda: list(iter_count_vectors(2, True)),
        lambda: list(iter_count_vectors(2.0, 3)),
        lambda: list(iter_count_vectors(True, 3)),
        lambda: list(iter_count_vectors("2", 3)),
        lambda: composition_count(0, 5),
        lambda: composition_count(True, 3),
        lambda: composition_count(3, 2.0),
        lambda: composition_count(3, True),
        lambda: composition_count(3, "2"),
    ],
    ids=["stacked-float", "stacked-bool", "stacked-string", "stack-cost-float", "stack-cost-bool",
         "stack-cost-string", "path-out-of-range", "path-negative", "path-bool-source",
         "path-bool-target", "path-string-source", "vectors-bool-size", "vectors-float-order",
         "vectors-bool-order", "vectors-string-order", "count-no-vertex", "count-bool-order",
         "count-float-size", "count-bool-size", "count-string-size"],
)
def test_vertex_and_size_helpers_refuse_bad_arguments(call):
    # each used to raise TypeError, IndexError or ValueError, or to answer
    # as if True were vertex 1 or one pebble
    with pytest.raises(InvalidSpec):
        call()


def test_generate_multipartite_k22():
    g = generate(Multipartite((2, 2)))
    assert g.n == 4
    assert len(g.edges) == 4
    assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_generate_wheel3_is_complete():
    g = generate(Wheel(3))
    assert g.n == 4
    assert len(g.edges) == 6
    assert g.diam == 1


def test_generate_fuse74():
    g = generate(Fuse(7, 4))
    assert g.n == 7
    assert len(g.edges) == 6
    assert g.diam == 4
    # free path end at 0, star center at 3, spokes 4..6
    assert g.adj[0] == (1,)
    assert g.adj[3] == (2, 4, 5, 6)


def test_generate_path_and_star_delegate():
    p4 = generate(Path(4))
    assert p4.edges == ((0, 1), (1, 2), (2, 3))
    assert generate(Path(1)).n == 1
    s3 = generate(Star(3))
    assert s3.edges == ((0, 3), (1, 3), (2, 3))
    assert s3.n == 4


def test_generate_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        generate(Multipartite((1, 2)))
    with pytest.raises(InvalidSpec):
        generate(Multipartite(()))
    with pytest.raises(InvalidSpec):
        generate(Multipartite((2, 0)))
    with pytest.raises(InvalidSpec):
        generate(Wheel(2))
    with pytest.raises(InvalidSpec):
        generate(Fuse(5, 5))
    with pytest.raises(InvalidSpec):
        generate(Fuse(5, 0))
    with pytest.raises(InvalidSpec):
        generate(Path(0))
    with pytest.raises(InvalidSpec):
        generate(Star(0))


@pytest.mark.parametrize(
    "spec",
    [Path(True), Path("3"), Path(3.0), Star(True), Star(2.0), Star("2"), Wheel(3.0), Wheel("3"),
     Wheel(True), Multipartite((True, True)), Multipartite((2, 1.0)), Multipartite((2, "1")),
     Fuse(5.0, 2), Fuse(5, True), Fuse(True, 1), Fuse("5", 2), Fuse(5, "2")],
    ids=repr,
)
def test_generate_refuses_parameters_that_are_not_ints(spec):
    # a bool is an int to isinstance and to comparisons, so Path(True)
    # would build path 1
    with pytest.raises(InvalidSpec):
        generate(spec)


def test_family_edge_lists_match_the_definition():
    # the recognisers in constructive compare these lists with g.edges,
    # so they must equal build_graph's normalised, sorted edge tuple
    for n in range(3, 12):
        spokes = [(0, i) for i in range(1, n + 1)]
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        assert wheel_edges(n) == build_graph(n + 1, rim + spokes).edges
        assert generate(Wheel(n)).edges == wheel_edges(n)
    for sizes in [(1,), (1, 1), (2, 1), (2, 2), (2, 1, 1), (3, 2, 2), (4, 3, 2, 1)]:
        cls = [i for i, s in enumerate(sizes) for _ in range(s)]
        pairs = [(u, v) for u in range(len(cls)) for v in range(len(cls)) if cls[u] != cls[v]]
        assert multipartite_edges(sizes) == build_graph(len(cls), pairs).edges
        assert generate(Multipartite(sizes)).edges == multipartite_edges(sizes)
    with pytest.raises(InvalidSpec):
        wheel_edges(2)
    with pytest.raises(InvalidSpec):
        multipartite_edges((1, 2))


def test_multipartite_diameter_rule():
    for sizes in [(2, 2), (3, 1), (2, 1, 1), (4, 3, 2)]:
        assert generate(Multipartite(sizes)).diam == 2
    for r in range(2, 5):
        assert generate(Multipartite((1,) * r)).diam == 1
    assert generate(Multipartite((1,))).diam == 0


def test_wheel_diameter_rule():
    assert generate(Wheel(3)).diam == 1
    for n in range(4, 9):
        assert generate(Wheel(n)).diam == 2


def test_fuse_order_and_diameter():
    # a single-edge stem with several spokes is a star whose two spokes
    # sit at distance 2, so the diameter exceeds d there
    for n in range(2, 13):
        for d in range(1, n):
            g = generate(Fuse(n, d))
            assert g.n == n
            assert len(g.edges) == n - 1
            expected = d if (d >= 2 or n - d < 2) else 2
            assert g.diam == expected, (n, d)


def test_generate_is_deterministic():
    specs = [Multipartite((3, 2, 1)), Wheel(5), Fuse(7, 4), Path(6), Star(4)]
    for spec in specs:
        assert generate(spec) == generate(spec)


def test_graph_text_round_trip():
    for spec in [Multipartite((2, 2)), Wheel(4), Fuse(6, 3), Path(5)]:
        g = generate(spec)
        again = parse_graph_text(format_graph_text(g))
        assert again == g


def test_graph_text_comments_and_blanks():
    text = "# a wheel\n\n4 4\n0 1  # first\n0 2\n# middle comment\n0 3\n1 2\n"
    g = parse_graph_text(text)
    assert g.n == 4
    assert len(g.edges) == 4


def test_graph_text_parse_errors():
    with pytest.raises(ParseError):
        parse_graph_text("")
    with pytest.raises(ParseError):
        parse_graph_text("2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph_text("2 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph_text("2 1\n0 x\n")
    with pytest.raises(ParseError, match="header values must be integers"):
        parse_graph_text("two 1\n0 1\n")
    err = None
    try:
        parse_graph_text("# head\n2 1\n0 1 9\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3


def test_connected_classes_count_the_isomorphism_classes():
    # connected graphs up to isomorphism, orders 1-6 (OEIS A001349)
    assert [len(connected_classes(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
