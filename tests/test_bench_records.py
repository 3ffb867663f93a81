"""Every committed BENCH_*.json holds complete, failure-free records:
each names its commit, machine and Python version, and carries every
end-to-end metric that BENCHMARK.json declares."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_bench_record_is_complete():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_*.json at the repository root"
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert len(metrics) == 6
    for path in files:
        bench = json.loads(path.read_text())
        assert bench["command"].startswith("python3 bench/run.py"), path.name
        assert bench["workloads"], path.name
        for workload, runs in bench["workloads"].items():
            assert {run["side"] for run in runs} == {"parent", "change"}, (path.name, workload)
            for run in runs:
                record = run["record"]
                where = (path.name, workload, run["side"])
                assert record["workload"] == workload, where
                assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]), where
                assert isinstance(record["nproc"], int) and record["nproc"] > 0, where
                assert re.fullmatch(r"\d+\.\d+\.\d+", record["python"]), where
                assert all(isinstance(record["metrics"][m]["value"], (int, float)) for m in metrics), where
                assert record["failures"] == [], where
