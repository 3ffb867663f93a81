"""Append one benchmark record to a BENCH_<pr>.json file, or summarise one.

bench/run.py writes each untraced run's record to
``<checkout>/.bench_out/<workload>-seed<s>-trace0.json`` and the next
run of that workload overwrites it, so run this after every benchmark
run, in the order the runs were made:

    python3 tools/bench_record.py BENCH_29.json parent ../parent gamma
    python3 tools/bench_record.py BENCH_29.json change ../change gamma

The file holds the command line of the runs and, per workload, the
records with their side (parent or change) in the order they ran.  All
records in one file must come from the same command line but for the
workload and the seed, which each record names.  Run each side from a
git clone at its commit, so the record names the commit.

    python3 tools/bench_record.py --summary BENCH_31.json

prints one line per workload, seed and end-to-end metric of
BENCHMARK.json: the parent and change medians with their quartiles
[Q1, Q3], the relative change of the median, and in how many pairs the
change reads better, the k-th parent run paired with the k-th change run
in run order and a tie counting for neither side.  A gain is claimed
when the change wins nine tenths of the pairs and the medians differ by
more than the parent's Q3 - Q1.  Each figure is rounded to four
significant digits of the parent's median.  A last line per workload
and seed lists each side's pass counts in run order: peak RSS grows with
the passes a run fits, so a faster change can read as an RSS rise.  That
line ends with the least-squares slope of peak_rss_mib over the passes,
across both sides' runs, in MiB per pass to three significant digits,
or "n/a" when every run made the same number of passes; a change's RSS
reading is then read against the rise its extra passes explain.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def command_of(record: dict) -> str:
    return f"python3 bench/run.py --workload <workload> --seed <seed> --seconds {record['seconds']:g} --trace 0"


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _rss_slope(sides: list[list[dict]]) -> str:
    passes = [r["passes"] for side in sides for r in side]
    if len(set(passes)) == 1:
        return "peak_rss_mib slope n/a"
    rss = [r["metrics"]["peak_rss_mib"]["value"] for side in sides for r in side]
    return f"peak_rss_mib slope {statistics.linear_regression(passes, rss).slope:.3g} MiB per pass"


def summary(bench: dict, metrics: list[dict]) -> list[str]:
    """The summary lines of a BENCH_<pr>.json file, given the end-to-end
    metrics of BENCHMARK.json, each with its name, unit and better side."""
    lines = []
    for workload, runs in bench["workloads"].items():
        for seed in sorted({run["record"]["seed"] for run in runs}):
            sides = [
                [run["record"] for run in runs if (run["side"], run["record"]["seed"]) == (side, seed)]
                for side in ("parent", "change")
            ]
            if not all(sides):
                continue
            for metric in metrics:
                name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
                parent, change = ([r["metrics"][name]["value"] for r in side] for side in sides)
                base, now = statistics.median(parent), statistics.median(change)
                places = max(0, 3 - math.floor(math.log10(base)))
                q_parent, q_change = (", ".join(f"{q:.{places}f}" for q in _quartiles(v)) for v in (parent, change))
                wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
                lines.append(
                    f"{workload} seed {seed} {name} {metric['unit']}: "
                    f"parent {base:.{places}f} [{q_parent}] -> change {now:.{places}f} [{q_change}], "
                    f"{100 * (now - base) / base:+.1f}%, better in {wins} of {min(len(parent), len(change))} pairs"
                )
            parent, change = (", ".join(str(r["passes"]) for r in side) for side in sides)
            lines.append(f"{workload} seed {seed} passes: parent {parent} -> change {change}; {_rss_slope(sides)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", type=Path, metavar="BENCH", help="print the summary of a BENCH_<pr>.json file")
    parser.add_argument("out", type=Path, nargs="?", help="the BENCH_<pr>.json file, created if missing")
    parser.add_argument("side", nargs="?", choices=("parent", "change"))
    parser.add_argument("checkout", type=Path, nargs="?", help="the checkout the run was made in")
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if args.summary is not None:
        metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        print("\n".join(summary(json.loads(args.summary.read_text()), metrics)))
        return 0
    if args.workload is None:
        parser.error("out, side, checkout and workload are required without --summary")
    source = args.checkout / ".bench_out" / f"{args.workload}-seed{args.seed}-trace0.json"
    record = json.loads(source.read_text())
    bench = json.loads(args.out.read_text()) if args.out.exists() else {"command": command_of(record), "workloads": {}}
    if bench["command"] != command_of(record):
        print(f"bench_record: {source} ran `{command_of(record)}`, not `{bench['command']}`", file=sys.stderr)
        return 2
    bench["workloads"].setdefault(args.workload, []).append({"side": args.side, "record": record})
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
