"""Append one benchmark record to a BENCH_<pr>.json file.

bench/run.py writes each untraced run's record to
``<checkout>/.bench_out/<workload>-seed<s>-trace0.json`` and the next
run of that workload overwrites it, so run this after every benchmark
run, in the order the runs were made:

    python3 tools/bench_record.py BENCH_29.json parent ../parent gamma
    python3 tools/bench_record.py BENCH_29.json change ../change gamma

The file holds the command line of the runs and, per workload, the
records with their side (parent or change) in the order they ran.  All
records in one file must come from the same command line.  Run each
side from a git clone at its commit, so the record names the commit.
"""

import argparse
import json
import sys
from pathlib import Path


def command_of(record: dict) -> str:
    return (
        f"python3 bench/run.py --workload <workload> --seed {record['seed']}"
        f" --seconds {record['seconds']:g} --trace 0"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the BENCH_<pr>.json file, created if missing")
    parser.add_argument("side", choices=("parent", "change"))
    parser.add_argument("checkout", type=Path, help="the checkout the run was made in")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

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
