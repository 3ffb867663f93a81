"""Self-tests of the benchmark: wrong answers are counted, tiny runs of
every workload pass, and a sample of unsolvable answers holds without
pruning.  Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speed import REF_SECONDS, SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import Construct, Gamma, Solve, load_library, run_pass  # noqa: E402

TINY = {
    "gamma": lambda: Gamma(graphs=("fuse53",), relabellings=1),
    "solve": lambda: Solve(ops=48),
    "construct": lambda: Construct(ops=48),
}


def one_pass(workload, lib=None, seed=7):
    lib = lib or load_library()
    items = workload.setup(lib, random.Random(seed), NullTracer())
    return run_pass(workload, lib, items, NullTracer(), "x")


def patched(**names):
    lib = load_library()
    for name, fn in names.items():
        setattr(lib, name, fn(getattr(lib, name)))
    return lib


def drop_last_move(cert):
    return dataclasses.replace(cert, moves=cert.moves[:-1])


def test_wrong_gamma_is_a_failure():
    def wrong(gamma_exact):
        return lambda g: dataclasses.replace(gamma_exact(g), gamma=gamma_exact(g).gamma + 1)

    result = one_pass(Gamma(graphs=("fuse53",), relabellings=1), patched(gamma_exact=wrong))
    assert len(result.failures) == 1


def test_solvable_witness_is_a_failure():
    def spread_witness(gamma_exact):
        def call(g):
            res = gamma_exact(g)
            # gamma-1 pebbles spread so that every vertex holds one
            size = res.gamma - 1
            counts = tuple(size // g.n + (v < size % g.n) for v in range(g.n))
            return dataclasses.replace(res, witness=dataclasses.replace(res.witness, counts=counts))

        return call

    result = one_pass(Gamma(graphs=("k32",), relabellings=1), patched(gamma_exact=spread_witness))
    assert len(result.failures) == 1
    assert "is solvable" in result.failures[0]


def replays(g, cert, b) -> bool:
    """Independent replay: every move legal and every target covered."""
    counts = list(cert.initial.counts)
    for m in cert.moves:
        if m.dst not in g.adj[m.src] or counts[m.src] < 2:
            return False
        counts[m.src] -= 2
        counts[m.dst] += 1
    return all(counts[v] for v in (b.support if b is not None else range(g.n)))


def test_certificate_missing_a_move_is_a_failure():
    # a dropped move can be one the certificate did not need, so the
    # expected failures are the truncated certificates that do not replay
    broken = []

    def truncate(g, cert, b):
        cert = drop_last_move(cert)
        broken.append(not replays(g, cert, b))
        return cert

    wrappers = {
        "solve_wheel": lambda fn: lambda g, c: truncate(g, fn(g, c), None),
        "solve_multipartite": lambda fn: lambda g, sizes, c: truncate(g, fn(g, sizes, c), None),
        "solve_diameter": lambda fn: lambda g, c: (truncate(g, fn(g, c)[0], None), None),
        "solve_pigeonhole": lambda fn: lambda g, b, c: truncate(g, fn(g, b, c), b),
    }
    result = one_pass(Construct(ops=48), patched(**wrappers))
    assert sum(broken) > 0
    assert len(result.failures) == sum(broken)


def test_solve_certificate_missing_a_move_is_a_failure():
    broken = []

    def truncating(solve):
        def call(g, c, b, **kwargs):
            out = solve(g, c, b, **kwargs)
            if not out.solvable:
                return out
            cert = drop_last_move(out.certificate)
            broken.append(not replays(g, cert, b))
            return dataclasses.replace(out, certificate=cert)

        return call

    result = one_pass(Solve(ops=48), patched(solve=truncating))
    assert sum(broken) > 0
    assert len(result.failures) == sum(broken)


def test_unsolvable_at_the_bound_is_a_failure():
    def refuse(solve):
        return lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), solvable=False, certificate=None
        )

    workload = Solve(ops=48)
    lib = patched(solve=refuse)
    items = workload.setup(lib, random.Random(7), NullTracer())
    at_bound = sum(item.c.size >= item.bound for item in items)
    result = run_pass(workload, lib, items, NullTracer(), "x")
    assert at_bound > 0
    assert len(result.failures) == at_bound


def test_unsolvable_answers_hold_without_pruning():
    # pruning is the soundness risk of the search; a full recheck of a
    # long run takes minutes, so recheck the cheapest few of a short one
    workload = Solve(ops=200)
    lib = load_library()
    items = workload.setup(lib, random.Random(11), NullTracer())
    unsolvable = []
    for item in items:
        out = lib.solve(item.g, item.c, item.b, memo=lib.SolveMemo())
        if not out.solvable:
            unsolvable.append((out.states_explored, item))
    assert len(unsolvable) >= 6
    for _, item in sorted(unsolvable, key=lambda pair: pair[0])[:6]:
        assert not lib.solve(item.g, item.c, item.b, pruning=False).solvable


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op", "a"):
        tracer.call("exact.solve", sum, range(1000))
        tracer.call("exact.solve", sum, range(1000))
    totals = tracer.self_times()
    _, _, op, parent, start, end = tracer.spans[0]
    children = sum(s[5] - s[4] for s in tracer.spans[1:])
    assert parent is None and op == "a"
    assert all(s[2] == "a" and s[3] == 0 for s in tracer.spans[1:])
    assert totals["op"] == pytest.approx(end - start - children)
    assert totals["exact.solve"] == pytest.approx(children)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_prints_every_declared_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {name: TINY[name]})
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        workload = Solve(ops=48)
        lib = load_library()
        items = workload.setup(lib, random.Random(5), NullTracer())
        counts.append(run_pass(workload, lib, items, NullTracer(), "x").counts)
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gamma", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_speed_scale_is_reference_over_the_mean_of_nearby_samples():
    probe = SpeedProbe()
    probe.mids = [0.0, 0.01, 0.02, 1.0, 1.01]
    probe.times = [1e-3, 1e-3, 2e-3, 4e-3, 4e-3]
    probe.pieces = [(0.005, 0.015, 3), (1.004, 1.006, 5), (0.5, 0.6, 3)]
    near, late, gap = probe.scales()
    assert near == pytest.approx(REF_SECONDS / (4e-3 / 3))
    assert late == pytest.approx(REF_SECONDS / 4e-3)
    # no sample within the window: the nearest ones on either side
    assert gap == pytest.approx(REF_SECONDS / 3e-3)


def test_pass_with_a_probe_scales_every_operation():
    workload = Construct(ops=12)
    lib = load_library()
    items = workload.setup(lib, random.Random(2), NullTracer())
    result = run_pass(workload, lib, items, NullTracer(), "x", SpeedProbe())
    assert len(result.scales) == len(result.latencies) == len(items)
    assert all(k > 0 for k in result.scales)
    assert result.reference_s > 0
