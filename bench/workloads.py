"""Seeded inputs, timed operations and answer checks for the workloads.

Each workload builds a fixed list of inputs from the seed during set-up.
One pass runs every input once, closed loop: one caller, each operation
starting when the previous one returned.  Every answer is checked right
after its operation, outside the operation's timing, against the cover
pebbling theorem (Sjöstrand, Electron. J. Combin. 2005): the cover
pebbling number with target set B is max over v of the sum over u in B
of 2**d(u, v).  An operation that raises or fails its check counts as
failed and the pass goes on.

The library is driven only through its public names.  Set-up and the
operations reach it through a namespace returned by ``load_library``,
which imports the package afresh so that set-up can be timed including
the import, and which lets the self-tests substitute wrong answers.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

from speed import NullProbe

LIBRARY_NAMES = (
    "BinaryWeighting",
    "Configuration",
    "Fuse",
    "Multipartite",
    "Path",
    "SolveMemo",
    "Star",
    "Wheel",
    "bound_report",
    "build_graph",
    "diameter_bound",
    "gamma_exact",
    "gamma_multipartite",
    "gamma_wheel",
    "generate",
    "iter_count_vectors",
    "solve",
    "solve_diameter",
    "solve_multipartite",
    "solve_pigeonhole",
    "solve_wheel",
    "validate_certificate",
    "verify_threshold",
    # imported by the package but missing from its __all__
    "weighted_cover_bound",
)


def load_library() -> SimpleNamespace:
    """Import coverpebble afresh and return the names the benchmark uses."""
    for name in [m for m in sys.modules if m == "coverpebble" or m.startswith("coverpebble.")]:
        del sys.modules[name]
    module = importlib.import_module("coverpebble")
    return SimpleNamespace(**{name: getattr(module, name) for name in LIBRARY_NAMES})


def cover_bound(g, targets) -> int:
    """The theorem's value: the worst cost of covering ``targets`` from
    one stack, computed here from the distance table alone."""
    return max(sum(1 << g.dist[u][v] for u in targets) for v in range(g.n))


def relabel(lib, t, rng, n: int, edges):
    """The graph on n vertices with these edges, under a random vertex
    permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    return t.call("graphs.build_graph", lib.build_graph, n, edges)


def random_connected(lib, t, rng, n: int, extra: int):
    """Random recursive tree on n vertices plus ``extra`` random edges,
    randomly labelled."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(extra):
        edges.append(tuple(rng.sample(range(n), 2)))
    return relabel(lib, t, rng, n, edges)


def random_with_diameter(lib, t, rng, n: int, d: int, extra: int):
    """Random connected graph of order n and diameter exactly d (2 <= d < n),
    randomly labelled.

    A path of d edges gives every vertex a position 0 .. d along it; each
    further vertex hangs below a random vertex at its position, no deeper
    than the distance from that position to the nearer end of the path,
    which keeps every distance within d.  The ``extra`` edges (fewer when
    too few pairs qualify) join vertices whose positions differ by at
    most one, so no edge moves the position by more than one and the two
    ends of the path stay d apart.
    """
    pos = list(range(d + 1))
    depth = [0] * (d + 1)
    edges = [(v - 1, v) for v in range(1, d + 1)]
    for v in range(d + 1, n):
        u = rng.choice([u for u in range(v) if depth[u] < min(pos[u], d - pos[u])])
        pos.append(pos[u])
        depth.append(depth[u] + 1)
        edges.append((u, v))
    present = {frozenset(e) for e in edges}
    pairs = [
        (u, v)
        for v in range(n)
        for u in range(v)
        if abs(pos[u] - pos[v]) <= 1 and frozenset((u, v)) not in present
    ]
    edges += rng.sample(pairs, min(extra, len(pairs)))
    return relabel(lib, t, rng, n, edges)


def random_marks(rng, n: int) -> tuple[int, ...]:
    while True:
        marks = tuple(rng.randint(0, 1) for _ in range(n))
        if any(marks):
            return marks


def random_counts(rng, n: int, size: int, support, share: float) -> list[int]:
    """``size`` pebbles spread uniformly over a random subset of
    ``support`` holding the given share of it (at least one vertex), so
    inputs range from one stack to an even spread."""
    support = list(support)
    chosen = rng.sample(support, 1 + int(share * len(support)))
    cuts = sorted(rng.sample(range(size + len(chosen) - 1), len(chosen) - 1))
    counts = [0] * n
    prev = -1
    for v, cut in zip(chosen, cuts + [size + len(chosen) - 1]):
        counts[v] = cut - prev - 1
        prev = cut
    return counts


def random_shape(rng, n: int) -> tuple[int, ...]:
    """Class sizes of a complete multipartite graph of order n: 2 to 5
    classes of at most 6 vertices, nonincreasing."""
    sizes = [1] * rng.randint(max(2, -(-n // 6)), min(5, n))
    for _ in range(n - len(sizes)):
        open_classes = [k for k, size in enumerate(sizes) if size < 6]
        sizes[rng.choice(open_classes)] += 1
    return tuple(sorted(sizes, reverse=True))


@dataclass
class PassResult:
    """What one pass over a workload's inputs did."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counts: dict[str, Any] = field(default_factory=dict)
    # per operation, the factor to the reference speed (see speed.py)
    scales: list[float] = field(default_factory=list)
    reference_s: float = 0.0


def run_pass(workload, lib, items, t, label: str, probe=None) -> PassResult:
    """Run every input once; time each operation and check its answer.
    A speed probe, when given, samples the machine's speed right after
    each operation, outside its timing."""
    probe = probe or NullProbe()
    result = PassResult(counts=workload.new_counts())
    clock = time.perf_counter
    probe.sample()
    for index, item in enumerate(items):
        op = f"{label}:{index}"
        start = clock()
        try:
            with t.span("op", op):
                answer = workload.operate(lib, item, t)
        except Exception as exc:  # a failed operation never aborts the run
            end = clock()
            result.failures.append(f"op {op} raised {exc!r}")
        else:
            end = clock()
            try:
                with t.span("check", op):
                    problem = workload.check(lib, item, answer, t)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem is not None:
                result.failures.append(f"op {op}: {problem}")
            else:
                workload.tally(item, answer, result.counts)
        result.latencies.append(end - start)
        probe.after(start, end)
    result.scales = probe.scales()
    result.reference_s = probe.mean()
    return result


# --- gamma ---------------------------------------------------------------


@dataclass(frozen=True)
class GammaInput:
    name: str
    g: Any
    theorem: int
    closed_form: Optional[int]


# name -> (family spec, closed form as (formula, argument) where one applies)
GAMMA_GRAPHS = {
    "wheel4": (lambda lib: lib.Wheel(4), ("gamma_wheel", 4)),
    "k32": (lambda lib: lib.Multipartite((3, 2)), ("gamma_multipartite", (3, 2))),
    "star4": (lambda lib: lib.Star(4), ("gamma_multipartite", (4, 1))),
    "path4": (lambda lib: lib.Path(4), None),
    "fuse53": (lambda lib: lib.Fuse(5, 3), None),
}


class Gamma:
    """gamma_exact on each graph under eight seeded vertex relabellings.

    Wheel 4 (stack bound 11, diameter bound 15) and K(3,2) (13 and 15)
    walk down across passing sizes from the diameter bound; star 4,
    path 4 and fuse(5,3) have equal bounds, so their work is one full
    passing scan and one failing scan.  The graphs are of order 5 at
    most, so one operation takes 10 to 450 ms and a run repeats each
    several times, where a search on order 6 takes seconds and a run
    would time it once.  The labels decide the search order and move
    one graph's time by up to a fifth; eight relabellings per graph
    average that out.
    """

    name = "gamma"

    def __init__(self, graphs=tuple(GAMMA_GRAPHS), relabellings: int = 8):
        self.graphs = graphs
        self.relabellings = relabellings

    def setup(self, lib, rng, t) -> list[GammaInput]:
        items = []
        for name in self.graphs * self.relabellings:
            spec, closed = GAMMA_GRAPHS[name]
            g = t.call("graphs.generate", lib.generate, spec(lib))
            g = relabel(lib, t, rng, g.n, g.edges)
            value = None
            if closed is not None:
                formula, arg = closed
                value = t.call(f"formulas.{formula}", getattr(lib, formula), arg)
            items.append(GammaInput(name, g, cover_bound(g, range(g.n)), value))
        return items

    def operate(self, lib, item, t):
        return t.call("exact.gamma_exact", lib.gamma_exact, item.g)

    def check(self, lib, item, res, t) -> Optional[str]:
        if res.gamma != item.theorem:
            return f"{item.name}: gamma {res.gamma}, worst stack cost {item.theorem}"
        if item.closed_form is not None and res.gamma != item.closed_form:
            return f"{item.name}: gamma {res.gamma}, closed form {item.closed_form}"
        witness = res.witness
        if len(witness.counts) != item.g.n or sum(witness.counts) != res.gamma - 1:
            return f"{item.name}: witness {witness.counts} is not of size gamma-1"
        if t.call("exact.solve", lib.solve, item.g, witness).solvable:
            return f"{item.name}: witness {witness.counts} is solvable"
        return None

    def new_counts(self) -> dict:
        return {"configs_checked": 0}

    def tally(self, item, res, counts) -> None:
        counts["configs_checked"] += res.configs_checked

    def probes(self, lib, items, t, workers: int) -> dict:
        """Scaling baseline for the exact layer, outside the timed passes:
        the enumerator alone at each graph's gamma, and one full passing
        scan at 1 and at ``workers`` threads, each with a fresh memo."""
        clock = time.perf_counter
        start = clock()
        for item in items:
            t.call("exact.iter_count_vectors", _walk, lib.iter_count_vectors(item.g.n, item.theorem))
        enumerate_s = clock() - start
        item = items[-1]  # fuse(5, 3) in the full set: the longest full scan
        times = {1: [], workers: []}
        for _ in range(3):
            for w in times:
                start = clock()
                res = t.call("exact.verify_threshold", lib.verify_threshold, item.g, item.theorem, w, memo=lib.SolveMemo())
                times[w].append(clock() - start)
                if not res.ok:
                    raise RuntimeError(f"{item.name}: scan at gamma {item.theorem} found {res.witness}")
        speedup = statistics.median(times[1]) / statistics.median(times[workers])
        return {"exact.enumerate_s": enumerate_s, "exact.scan_w2_speedup": speedup}


def _walk(vectors) -> None:
    for _ in vectors:
        pass


# --- solve ---------------------------------------------------------------


@dataclass(frozen=True)
class SolveInput:
    g: Any
    c: Any
    b: Any
    bound: int


SOLVE_FAMILIES = (
    lambda lib: lib.Wheel(6),
    lambda lib: lib.Wheel(7),
    lambda lib: lib.Multipartite((4, 3)),
    lambda lib: lib.Multipartite((3, 2, 2)),
    lambda lib: lib.Fuse(7, 3),
)


class Solve:
    """Cold single decisions, each solve with a fresh SolveMemo.

    Operation i takes graph slot i mod 8, cycling over the five families
    and three random connected graphs of order 7 and diameter 3 (a tree
    plus 1 .. 7 random edges); then a stack of L-2 .. L+1 pebbles (L the
    worst stack cost), on a worst-stack vertex in seven rounds of ten and
    on some other vertex in the rest, plus 0 .. 4 pebbles scattered at
    random; every fourth round of eight operations carries a random
    nonempty binary weighting.  All but the random graphs, the scattered
    pebbles and the weightings run through a fixed cycle of operations.
    The family graphs keep the labels that ``generate`` gives them, as a
    user of ``coverpebble solve`` gets them; each random slot gets a
    fresh graph per operation.  The move order breaks ties by vertex
    index, so under random labels a solvable stack is found in ten
    states or in ten thousand depending on the labels alone, and the
    total work of a pass moved by a third between seeds.  Random graphs
    of larger diameter would let one outlier set the memory peak.
    """

    name = "solve"
    RANDOM_SLOTS = 3

    def __init__(self, ops: int = 2560):
        self.ops = ops

    def setup(self, lib, rng, t) -> list[SolveInput]:
        bases = [t.call("graphs.generate", lib.generate, spec(lib)) for spec in SOLVE_FAMILIES]
        slots = len(bases) + self.RANDOM_SLOTS
        items = []
        for i in range(self.ops):
            slot, turn = i % slots, i // slots
            if slot < len(bases):
                g = bases[slot]
            else:
                g = random_connected(lib, t, rng, 7, 1 + turn % 7)
                while g.diam != 3:
                    g = random_connected(lib, t, rng, 7, 1 + turn % 7)
            report = t.call("formulas.bound_report", lib.bound_report, g)
            worst = [v for v, cost in enumerate(report.stack_costs) if cost == report.lower_stacked]
            v = worst[turn % len(worst)] if turn % 10 < 7 else 3 * turn % g.n
            counts = [0] * g.n
            counts[v] = report.lower_stacked - 2 + (i // (slots * 4)) % 4
            for _ in range((i // (slots * 16)) % 5):
                counts[rng.randrange(g.n)] += 1
            b = lib.BinaryWeighting(random_marks(rng, g.n)) if (i // slots) % 4 == 3 else None
            targets = b.support if b is not None else range(g.n)
            items.append(SolveInput(g, lib.Configuration(tuple(counts)), b, cover_bound(g, targets)))
        return items

    def operate(self, lib, item, t):
        memo = lib.SolveMemo()
        outcome = t.call("exact.solve", lib.solve, item.g, item.c, item.b, memo=memo)
        return outcome, len(memo.win) + len(memo.fail)

    def check(self, lib, item, answer, t) -> Optional[str]:
        outcome, _ = answer
        if outcome.solvable:
            cert = outcome.certificate
            if cert is None or cert.initial != item.c:
                return "solvable without a certificate for this configuration"
            t.call("pebbles.validate_certificate", lib.validate_certificate, item.g, cert, item.b)
            return None
        if item.c.size >= item.bound:
            return f"unsolvable at size {item.c.size}, theorem bound {item.bound}"
        return None

    def new_counts(self) -> dict:
        return {"states": [], "unsolvable": 0, "cert_moves": 0, "memo_entries": 0}

    def probes(self, lib, items, t, workers: int) -> dict:
        return {}

    def tally(self, item, answer, counts) -> None:
        outcome, memo_entries = answer
        counts["states"].append(outcome.states_explored)
        counts["memo_entries"] = max(counts["memo_entries"], memo_entries)
        if outcome.solvable:
            counts["cert_moves"] += len(outcome.certificate.moves)
        else:
            counts["unsolvable"] += 1


# --- construct -----------------------------------------------------------


STRATEGIES = ("wheel", "multipartite", "diameter", "pigeonhole")
GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class ConstructInput:
    strategy: str
    g: Any
    c: Any
    b: Any = None
    sizes: tuple = ()


class Construct:
    """Certificates from the four strategies on graphs beyond exhaustive
    reach, each operation being the strategy call plus its replay.

    The strategy cycles with the operation index.  Wheels (8 to 40 rim
    vertices) and complete multipartite graphs (four random shapes of 2
    to 5 classes of at most 6 vertices for each order 4 to 30) are
    cycled through in order; the diameter strategy gets a fresh random
    tree of order 8 to 14 and diameter 3 to 7 or random connected graph
    of order 10 to 30 and diameter 3 to 8, and the pigeonhole strategy a
    fresh random connected graph of order 6 to 20 and diameter 2 to 7
    with a random weighting.  Strategy cost grows with the order and,
    for the diameter and pigeonhole strategies, exponentially with the
    diameter, so order and diameter follow a fixed schedule: left to
    chance, the few graphs of the largest diameter set the slowest
    operations, and their number changed from seed to seed.  Each
    configuration holds the strategy's threshold plus 0 to 3 pebbles.
    """

    name = "construct"

    def __init__(self, ops: int = 4000):
        self.ops = ops

    def setup(self, lib, rng, t) -> list[ConstructInput]:
        wheels = [t.call("graphs.generate", lib.generate, lib.Wheel(rim)) for rim in range(8, 41)]
        shapes = []
        for _ in range(4):
            for n in range(4, 31):
                sizes = random_shape(rng, n)
                shapes.append((sizes, t.call("graphs.generate", lib.generate, lib.Multipartite(sizes))))
        items = []
        for i in range(self.ops):
            strategy = STRATEGIES[i % len(STRATEGIES)]
            turn = i // len(STRATEGIES)
            b, sizes = None, ()
            if strategy == "wheel":
                g = wheels[turn % len(wheels)]
                threshold = t.call("formulas.gamma_wheel", lib.gamma_wheel, g.n - 1)
            elif strategy == "multipartite":
                sizes, g = shapes[turn % len(shapes)]
                threshold = t.call("formulas.gamma_multipartite", lib.gamma_multipartite, sizes)
            elif strategy == "diameter":
                k = turn // 2
                if turn % 2:
                    g = random_with_diameter(lib, t, rng, 8 + k % 7, 3 + k // 7 % 5, 0)
                else:
                    n = 10 + k % 21
                    g = random_with_diameter(lib, t, rng, n, 3 + k // 21 % 6, rng.randint(1, n))
                threshold = t.call("formulas.diameter_bound", lib.diameter_bound, g.n, g.diam)
            else:
                n = 6 + turn % 15
                g = random_with_diameter(lib, t, rng, n, min(n - 1, 2 + turn // 15 % 6), rng.randint(1, n))
                b = lib.BinaryWeighting(random_marks(rng, g.n))
                threshold = t.call("formulas.weighted_cover_bound", lib.weighted_cover_bound, b.order, g.diam)
            support = b.support if b is not None else range(g.n)
            # the shares follow a low-discrepancy sequence, not chance: the
            # spread sets the length of a certificate, and the slowest
            # operations are the long certificates on the largest graphs
            share = i * GOLDEN % 1.0
            counts = random_counts(rng, g.n, threshold + rng.randrange(4), support, share)
            items.append(ConstructInput(strategy, g, lib.Configuration(tuple(counts)), b, sizes))
        return items

    def operate(self, lib, item, t):
        if item.strategy == "wheel":
            cert = t.call("constructive.solve_wheel", lib.solve_wheel, item.g, item.c)
        elif item.strategy == "multipartite":
            cert = t.call("constructive.solve_multipartite", lib.solve_multipartite, item.g, item.sizes, item.c)
        elif item.strategy == "diameter":
            cert, _ = t.call("constructive.solve_diameter", lib.solve_diameter, item.g, item.c)
        else:
            cert = t.call("constructive.solve_pigeonhole", lib.solve_pigeonhole, item.g, item.b, item.c)
        t.call("pebbles.validate_certificate", lib.validate_certificate, item.g, cert, item.b)
        return cert

    def check(self, lib, item, cert, t) -> Optional[str]:
        if cert.initial != item.c:
            return f"{item.strategy}: certificate starts from another configuration"
        return None

    def new_counts(self) -> dict:
        return {f"{s}_moves": 0 for s in STRATEGIES}

    def probes(self, lib, items, t, workers: int) -> dict:
        return {}

    def tally(self, item, cert, counts) -> None:
        counts[f"{item.strategy}_moves"] += len(cert.moves)


WORKLOADS = {"gamma": Gamma, "solve": Solve, "construct": Construct}
