"""Every committed BENCH_*.json holds complete, failure-free records:
each names its commit, machine and Python version, and carries every
end-to-end metric that BENCHMARK.json declares, and its pass count.
The summary of tools/bench_record.py reads each of them."""

import importlib.util
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
                assert isinstance(record["passes"], int) and record["passes"] > 0, where
                assert record["failures"] == [], where


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_summary_covers_every_pair_of_every_committed_file(capsys):
    bench_record = _bench_record()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        lines = bench_record.summary(bench, metrics)
        seeds = {(w, run["record"]["seed"]) for w, runs in bench["workloads"].items() for run in runs}
        assert len(lines) == len(seeds) * (len(metrics) + 1), path.name
        for line in lines:
            if re.fullmatch(r"\w+ seed \d+ passes: parent \d+(, \d+)* -> change \d+(, \d+)*; "
                            r"peak_rss_mib slope (n/a|-?[0-9.e-]+ MiB per pass)", line):
                continue
            wins, pairs = map(int, re.fullmatch(r".*, better in (\d+) of (\d+) pairs", line).groups())
            assert 0 <= wins <= pairs > 0, (path.name, line)
        assert bench_record.main(["--summary", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == lines, path.name
    lines = bench_record.summary(json.loads((ROOT / "BENCH_31.json").read_text()), metrics)
    assert (
        "gamma seed 1 op_p99_ms ms: parent 1.181 [1.180, 1.193] -> change 0.660 [0.651, 0.667], "
        "-44.1%, better in 10 of 10 pairs"
    ) in lines
    # the pass counts, per side in run order, follow each seed's metrics,
    # with the least-squares slope of peak RSS over the passes of both sides
    assert lines[len(metrics)] == (
        "gamma seed 1 passes: parent 1554, 1636, 1556, 1551, 1683, 1579, 1534, 1667, 1723, 1757 "
        "-> change 1897, 2125, 2018, 1945, 2118, 2047, 1929, 1981, 2152, 2184; "
        "peak_rss_mib slope 0.00579 MiB per pass"
    )
    lines = bench_record.summary(json.loads((ROOT / "BENCH_34.json").read_text()), metrics)
    assert lines[-1] == (
        "construct seed 1 passes: parent 46, 52, 51 -> change 54, 55, 46; peak_rss_mib slope 0.459 MiB per pass"
    )
    # one pass count on every run fits no slope
    run = {"side": "parent", "record": {"seed": 1, "passes": 7, "metrics": {m["name"]: {"value": 1.0} for m in metrics}}}
    flat = bench_record.summary({"workloads": {"gamma": [run, {**run, "side": "change"}]}}, metrics)
    assert flat[-1] == "gamma seed 1 passes: parent 7 -> change 7; peak_rss_mib slope n/a"
