"""coverpebble benchmark: seeded workloads, checked answers, end-to-end
and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload gamma --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py):

- gamma: gamma_exact on five small graphs, each relabelled by the seed.
- solve: a stream of cold single decisions with fresh memos.
- construct: certificates from the four constructive strategies, each
  replayed, on graphs beyond exhaustive reach.

The benchmark imports the package from ``src/`` next to this directory
and exits with code 2 when it is missing.  One process and one thread
drive the library; only the scaling probe of the traced gamma run starts
threads, never more than the machine has cores.

With ``--trace 0`` the run sets up the inputs several times (import
included) and reports the median as ``setup_s``, then runs passes over
the inputs until ``--seconds`` have gone by.  Times are reported at the
speed of a reference machine (see speed.py): on a shared host the same
code runs up to three quarters slower for tens of seconds at a time, so
each set-up and each operation is scaled by how fast a fixed reference
loop, sampled around it, ran meanwhile.  Each operation's time is then the
median of its scaled times over the passes.  The figures as measured,
unscaled, are printed beside them and kept in the record.
``wall_s`` is the sum of the operations' times (one pass's work),
``ops_per_s`` the operations of a pass divided by it, ``op_p50_ms`` and
``op_p99_ms`` percentiles over the operations, and ``peak_rss_mib`` the
peak resident set of the process and its children.
With ``--trace 1`` it runs untraced passes for half the time and traced
passes for the other half, and reports the per-layer metrics: self time
per layer from the spans, as measured, counts from the returned values
(per pass, so they repeat exactly for one seed), and
``trace_overhead_s``, from scaled times like ``wall_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the seed, the machine and the reasons for each
workload, goes to ``.bench_out/``, and the spans of a traced run to a
JSON-lines file beside it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import GAMMA_GRAPHS, STRATEGIES, WORKLOADS, load_library, run_pass  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "graphs.build_s": "s",
    "formulas.bounds_s": "s",
    "exact.gamma_s": "s",
    **{f"exact.gamma_s.{name}": "s" for name in GAMMA_GRAPHS},
    "exact.configs_checked": "count",
    "exact.configs_per_s": "1/s",
    "exact.enumerate_s": "s",
    "exact.scan_w2_speedup": "ratio",
    "exact.solve_s": "s",
    "exact.states_explored": "count",
    "exact.states_p99": "count",
    "exact.memo_entries": "count",
    "exact.unsolvable_share": "ratio",
    "exact.cert_moves": "count",
    "pebbles.replay_s": "s",
    "pebbles.replay_moves_per_s": "1/s",
    **{f"constructive.{s}_s": "s" for s in STRATEGIES},
    **{f"constructive.{s}_moves": "count" for s in STRATEGIES},
    "trace_overhead_s": "s",
}


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def run_passes(workload, lib, items, t, seconds: float, label: str):
    """Passes over the inputs until ``seconds`` have gone by, at least one."""
    gc.collect()
    gc.freeze()  # the inputs stay put; collections during a pass skip them
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()  # garbage of the last pass is not collected inside this one
        passes.append(run_pass(workload, lib, items, t, f"{label}{len(passes)}", SpeedProbe()))
        if time.perf_counter() - start >= seconds:
            return passes


def per_op_times(passes, scaled: bool = True) -> list[float]:
    """Each operation's median time over the passes, in input order, each
    time scaled to the reference speed unless ``scaled`` is off."""
    if scaled:
        runs = [[x * k for x, k in zip(p.latencies, p.scales)] for p in passes]
    else:
        runs = [p.latencies for p in passes]
    return [statistics.median(times) for times in zip(*runs)]


def timed_setup(workload, seed: int):
    """Import and set up once; returns the library, the inputs, the time
    at the reference speed and the time as measured."""
    probe = SpeedProbe()
    for _ in range(5):
        probe.sample()
    start = time.perf_counter()
    lib = load_library()
    items = workload.setup(lib, random.Random(seed), NullTracer())
    end = time.perf_counter()
    probe.after(start, end)
    for _ in range(5):
        probe.sample()
    return lib, items, (end - start) * probe.scales()[0], end - start


def measure(workload, seed: int, seconds: float) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        lib, items, took, raw = timed_setup(workload, seed)
        setups.append(took)
        raw_setups.append(raw)
    passes = run_passes(workload, lib, items, NullTracer(), seconds, "p")
    latencies = per_op_times(passes)
    raw = sorted(per_op_times(passes, scaled=False))
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    wall = sum(latencies)
    latencies.sort()
    return {
        "unscaled": {
            "setup_s": statistics.median(raw_setups),
            "wall_s": sum(raw),
            "ops_per_s": len(items) / sum(raw),
            "op_p50_ms": percentile(raw, 0.50) * 1e3,
            "op_p99_ms": percentile(raw, 0.99) * 1e3,
            "reference_ms": statistics.median(p.reference_s for p in passes) * 1e3,
        },
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": len(items) / wall,
            "op_p50_ms": percentile(latencies, 0.50) * 1e3,
            "op_p99_ms": percentile(latencies, 0.99) * 1e3,
            "peak_rss_mib": sum(usage) / 1024,
        },
        "samples": {
            "setup_s": len(setups),
            **{name: f"{len(items)} ops x {len(passes)} passes" for name in ("wall_s", "ops_per_s", "op_p50_ms", "op_p99_ms")},
            "peak_rss_mib": 1,
        },
        "passes": passes,
    }


def trace(workload, seed: int, seconds: float, tracer: Tracer) -> dict:
    lib = load_library()
    with tracer.span("setup"):
        items = workload.setup(lib, random.Random(seed), tracer)
    plain = run_passes(workload, lib, items, NullTracer(), seconds / 2, "u")
    traced = run_passes(workload, lib, items, tracer, seconds / 2, "t")
    probes, probe_failures = {}, []
    with tracer.span("probe"):
        try:
            probes = workload.probes(lib, items, tracer, min(2, os.cpu_count() or 1))
        except Exception as exc:  # counted as a failed operation
            probe_failures.append(f"probe raised {exc!r}")

    n = len(traced)
    at_setup = tracer.self_times({"setup"})
    in_ops = tracer.self_times({"op"})
    in_ops_checks = tracer.self_times({"op", "check"})
    per_graph = tracer.self_times(
        {"op"},
        key=lambda name, op: (
            f"exact.gamma_s.{items[int(op.split(':')[1])].name}" if name == "exact.gamma_exact" else None
        ),
    )
    counts = traced[0].counts
    states = sorted(counts.get("states", []))
    replayed = counts.get("cert_moves", 0) + sum(counts.get(f"{s}_moves", 0) for s in STRATEGIES)
    replay_s = in_ops_checks.get("pebbles.validate_certificate", 0.0) / n
    gamma_s = in_ops.get("exact.gamma_exact", 0.0) / n
    configs = counts.get("configs_checked", 0)
    metrics = {
        "graphs.build_s": sum(v for k, v in at_setup.items() if k.startswith("graphs.")),
        "formulas.bounds_s": sum(v for k, v in at_setup.items() if k.startswith("formulas.")),
        "exact.gamma_s": gamma_s,
        **{f"exact.gamma_s.{name}": per_graph.get(f"exact.gamma_s.{name}", 0.0) / n for name in GAMMA_GRAPHS},
        "exact.configs_checked": configs,
        "exact.configs_per_s": configs / gamma_s if gamma_s else 0.0,
        "exact.enumerate_s": probes.get("exact.enumerate_s", 0.0),
        "exact.scan_w2_speedup": probes.get("exact.scan_w2_speedup", 0.0),
        "exact.solve_s": in_ops.get("exact.solve", 0.0) / n,
        "exact.states_explored": sum(states),
        "exact.states_p99": percentile(states, 0.99) if states else 0,
        "exact.memo_entries": counts.get("memo_entries", 0),
        "exact.unsolvable_share": counts["unsolvable"] / len(items) if "unsolvable" in counts else 0.0,
        "exact.cert_moves": counts.get("cert_moves", 0),
        "pebbles.replay_s": replay_s,
        "pebbles.replay_moves_per_s": replayed / replay_s if replay_s else 0.0,
        **{f"constructive.{s}_s": in_ops.get(f"constructive.solve_{s}", 0.0) / n for s in STRATEGIES},
        **{f"constructive.{s}_moves": counts.get(f"{s}_moves", 0) for s in STRATEGIES},
        "trace_overhead_s": sum(per_op_times(traced)) - sum(per_op_times(plain)),
    }
    samples = {name: n for name in metrics}
    samples["trace_overhead_s"] = len(plain) + n
    return {"metrics": metrics, "samples": samples, "passes": plain + traced, "extra_failures": probe_failures}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workload_reasons() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {w["name"]: w["why"] for w in spec["workloads"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "coverpebble" / "__init__.py").is_file():
        print(f"bench: no coverpebble package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    found = importlib.util.find_spec("coverpebble")
    if found is None or Path(found.origin).resolve().parent != (src / "coverpebble").resolve():
        print(f"bench: coverpebble does not resolve to {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is None:
        run = measure(workload, args.seed, args.seconds)
        units = END_TO_END
    else:
        run = trace(workload, args.seed, args.seconds, tracer)
        units = PER_LAYER
    passes = run["passes"]
    failures = [f for p in passes for f in p.failures] + run.get("extra_failures", [])
    attempted = sum(len(p.latencies) for p in passes) + len(run.get("extra_failures", []))
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "why": workload_reasons(),
        "passes": len(passes),
    }

    print(" ".join(f"{k}={meta[k]}" for k in ("workload", "seed", "trace", "nproc", "python", "platform", "commit")))
    for name, reason in meta["why"].items():
        print(f"why {name}: {reason}")
    for name, unit in units.items():
        print(f"{name:<32} {run['metrics'][name]:>16.6g} {unit:<6} n={run['samples'][name]}")
    for name, value in run.get("unscaled", {}).items():
        print(f"{name + ' (unscaled)':<32} {value:>16.6g}")
    print(f"{'fail_ratio':<32} {len(failures) / max(attempted, 1):>16.6g} {'ratio':<6} n={attempted} ({len(failures)} failed)")
    for line in failures[:10]:
        print(f"bench: {line}", file=sys.stderr)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **meta,
        "metrics": metrics,
        "unscaled": run.get("unscaled", {}),
        "samples": run["samples"],
        "attempted": attempted,
        "failures": failures,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out / f"{stem}-spans.jsonl")

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
