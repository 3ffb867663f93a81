import dataclasses
import json
import subprocess
import sys
import time

from coverpebble import (
    Configuration,
    Wheel,
    cli,
    format_graph_text,
    generate,
    parse_graph_text,
)
from coverpebble.cli import (
    VerificationReport,
    emit_report,
    report_status,
    run_cli,
)

REPORT_FIELDS = (
    "graph",
    "gamma_formula",
    "gamma_oracle",
    "bound_lower",
    "bound_upper",
    "witness",
    "configs_checked",
    "elapsed_ms",
    "status",
)


def test_parse_graph_file_contents():
    g = parse_graph_text("2 1\n0 1\n")
    assert g.n == 2
    assert g.edges == ((0, 1),)
    p3 = parse_graph_text("3 2\n0 1\n1 2\n")
    assert p3.edges == ((0, 1), (1, 2))
    assert p3.diam == 2


def test_report_status_precedence():
    assert report_status(9, 9, 9, 9) == "match"
    assert report_status(9, 8, 1, 100) == "mismatch"
    assert report_status(None, 8, 9, 100) == "bound-violation"
    assert report_status(None, 9, 9, 9) == "ok"
    assert report_status(9, None, 9, 9) == "ok"
    # a wrong formula is reported even when the oracle also violates a bound
    assert report_status(5, 8, 9, 100) == "mismatch"


def _sample_report(witness):
    return VerificationReport(
        graph="wheel[3]",
        gamma_formula=7,
        gamma_oracle=7,
        bound_lower=7,
        bound_upper=11,
        witness=witness,
        configs_checked=120,
        elapsed_ms=0,
        status="match",
    )


def test_emit_report_json_field_order():
    text = emit_report([_sample_report(Configuration((6, 0, 0, 0)))], "json")
    lines = text.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert list(row) == list(REPORT_FIELDS)
    assert row["witness"] == [6, 0, 0, 0]
    assert row["status"] == "match"
    assert text.startswith('{"graph":')


def test_emit_report_csv_shape():
    text = emit_report([_sample_report(None)], "csv")
    header, row = text.splitlines()
    assert header == ",".join(REPORT_FIELDS)
    cells = row.split(",")
    assert cells[0] == "wheel[3]"
    assert cells[5] == ""
    assert cells[-1] == "match"


def test_emit_report_csv_witness_cell():
    text = emit_report([_sample_report(Configuration((6, 0, 0, 0)))], "csv")
    assert text.splitlines()[1].split(",")[5] == "6 0 0 0"


def test_gen_to_stdout(capsys):
    assert run_cli(["gen", "--family", "wheel", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == format_graph_text(generate(Wheel(3)))
    assert parse_graph_text(out).edges == generate(Wheel(3)).edges


def test_gen_rejects_ranges(capsys):
    assert run_cli(["gen", "--family", "wheel", "--n", "3..5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "w4.txt"
    assert run_cli(["gen", "--family", "wheel", "--n", "4", "--out", str(path)]) == 0
    code = run_cli(["solve", "--graph", str(path), "--config", "11 0 0 0 0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "solvable"
    assert lines[1].startswith("states=")
    moves = int(lines[2].split("=")[1])
    assert len(lines) == 3 + moves
    for line in lines[3:]:
        src, dst = map(int, line.split())
        assert 0 <= src < 5 and 0 <= dst < 5


def test_solve_unsolvable_exit_code(capsys, tmp_path):
    code = run_cli(["solve", "--family", "wheel", "--n", "4", "--config", "0 10 0 0 0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "unsolvable"
    k2 = tmp_path / "k2.txt"
    k2.write_text("2 1\n0 1\n")
    code = run_cli(["solve", "--graph", str(k2), "--config", "2 0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "unsolvable"


def test_solve_weighted(capsys):
    code = run_cli(
        ["solve", "--family", "path", "--n", "3",
         "--config", "4 0 0", "--weighting", "0 0 1"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "solvable"


def test_solve_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("3 0\n")
    code = run_cli(["solve", "--family", "path", "--n", "2", "--config-file", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "solvable"


def test_solve_budget_exit_code(capsys):
    code = run_cli(
        ["solve", "--family", "wheel", "--n", "5",
         "--config", "0 20 0 0 0 0", "--budget", "3"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("undecided:")


def test_usage_errors_exit_two(capsys):
    cases = [
        ["solve", "--config", "1 1"],
        ["solve", "--family", "wheel", "--n", "4"],
        ["solve", "--family", "wheel", "--n", "4", "--config", "1 1", "--config-file", "x"],
        ["solve", "--graph", "/nonexistent/g.txt", "--config", "1 1"],
        ["solve", "--family", "torus", "--n", "4", "--config", "1 1"],
        ["gamma", "--family", "fuse", "--n", "4", "--d", "9"],
        ["gamma", "--family", "wheel", "--n", "5..3"],
        ["construct", "--family", "wheel", "--n", "3",
         "--config", "7 0 0 0", "--algorithm", "pigeonhole"],
        ["gamma", "--family", "wheel", "--n", "4", "--upper-hint", "9"],
        ["gen", "--family", "wheel", "--n", "4", "--out", "/nonexistent/dir/w4.txt"],
        ["gamma", "--family", "wheel", "--n", "4", "--workers", "-2"],
        ["gamma", "--family", "wheel", "--n", "4", "--workers", "0"],
        ["verify", "--family", "wheel", "--n", "4", "--workers", "0"],
        ["gamma", "--family", "wheel", "--n", "4", "--workers", "2"],
        ["solve", "--family", "wheel", "--n", "4", "--config", "0 9 0 0 0", "--budget", "-5"],
        ["solve", "--family", "wheel", "--n", "4", "--config", "0 9 0 0 0", "--budget", "x"],
    ]
    for argv in cases:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv
        assert len(err.splitlines()) == 1, argv


def test_oversized_scan_exits_two(capsys):
    # wheel 20 has C(95, 20) > sys.maxsize configurations at its gamma
    started = time.perf_counter()
    assert run_cli(["gamma", "--family", "wheel", "--n", "20"]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_input_errors_exit_two(capsys):
    assert run_cli(["solve", "--family", "wheel", "--n", "4", "--config", "1 2 x"]) == 2
    capsys.readouterr()
    assert run_cli(["solve", "--family", "wheel", "--n", "4", "--config", "1 2 3"]) == 2
    capsys.readouterr()
    assert run_cli(
        ["construct", "--family", "wheel", "--n", "3",
         "--config", "6 0 0 0", "--algorithm", "wheel"]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_and_family_conflict(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1\n")
    code = run_cli(
        ["solve", "--graph", str(path), "--family", "wheel", "--n", "3", "--config", "3 0"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gamma_wheel_output(capsys):
    assert run_cli(["gamma", "--family", "wheel", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma=11"
    assert lines[1].startswith("witness=")
    witness = [int(x) for x in lines[1].split("=")[1].split()]
    assert len(witness) == 5 and sum(witness) == 10
    assert int(lines[2].split("=")[1]) > 0


def test_bound_output(capsys):
    assert run_cli(["bound", "--family", "fuse", "--n", "7", "--d", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lower_stacked=63"
    assert lines[1] == "upper_diameter=63"
    costs = [int(x) for x in lines[2].split("=")[1].split()]
    assert len(costs) == 7 and max(costs) == 63


def test_verify_multipartite_match(capsys):
    code = run_cli(
        ["verify", "--family", "multipartite", "--sizes", "2,2", "--no-timing"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == list(REPORT_FIELDS)
    assert row["graph"] == "multipartite[2,2]"
    assert row["gamma_formula"] == 9
    assert row["gamma_oracle"] == 9
    assert row["bound_lower"] == 9
    assert row["bound_upper"] == 11
    assert row["witness"] == [8, 0, 0, 0]
    assert row["elapsed_ms"] == 0
    assert row["status"] == "match"


def test_verify_wheel_range_order(capsys):
    code = run_cli(["verify", "--family", "wheel", "--n", "3..5", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["graph"] for r in rows] == ["wheel[3]", "wheel[4]", "wheel[5]"]
    assert [r["gamma_oracle"] for r in rows] == [7, 11, 15]
    assert all(r["status"] == "match" for r in rows)


def test_verify_tree_formula_column(capsys):
    code = run_cli(["verify", "--family", "fuse", "--n", "5", "--d", "3", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["gamma_formula"] == 23
    assert row["gamma_oracle"] == 23
    assert row["status"] == "match"


def _row(graph, formula, lower, upper, witness, checked):
    return {
        "graph": graph,
        "gamma_formula": formula,
        "gamma_oracle": formula,
        "bound_lower": lower,
        "bound_upper": upper,
        "witness": witness,
        "configs_checked": checked,
        "elapsed_ms": 0,
        "status": "match",
    }


def test_verify_answers_are_pinned(capsys):
    # full rows, witness and configs_checked included: a faster scan
    # must report exactly these
    cases = [
        (["--family", "wheel", "--n", "3..5"], [
            _row("wheel[3]", 7, 7, 7, [6, 0, 0, 0], 121),
            _row("wheel[4]", 11, 11, 15, [0, 10, 0, 0, 0], 1376),
            _row("wheel[5]", 15, 15, 19, [0, 14, 0, 0, 0, 0], 15519),
        ]),
        (["--family", "multipartite", "--sizes", "2,2", "--sizes", "3,2"], [
            _row("multipartite[2,2]", 9, 9, 11, [8, 0, 0, 0], 221),
            _row("multipartite[3,2]", 13, 13, 15, [12, 0, 0, 0, 0], 2381),
        ]),
        (["--family", "star", "--leaves", "4"], [
            _row("star[4]", 15, 15, 15, [14, 0, 0, 0, 0], 3877),
        ]),
        (["--family", "path", "--n", "4"], [
            _row("path[4]", 15, 15, 15, [14, 0, 0, 0], 817),
        ]),
        (["--family", "fuse", "--n", "5", "--d", "3"], [
            _row("fuse[5,3]", 23, 23, 23, [22, 0, 0, 0, 0], 17551),
        ]),
    ]
    for args, expected in cases:
        assert run_cli(["verify", *args, "--no-timing"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows == expected, args


def test_verify_csv_reruns_are_byte_identical(capsys):
    argv = ["verify", "--family", "multipartite", "--sizes", "2,2",
            "--sizes", "1,1,1", "--no-timing", "--format", "csv"]
    outputs = []
    for _ in range(2):
        assert run_cli(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    header = outputs[0].splitlines()[0]
    assert header == ",".join(REPORT_FIELDS)


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code = run_cli(
        ["verify", "--family", "wheel", "--n", "3", "--no-timing", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    row = json.loads(path.read_text().splitlines()[0])
    assert row["gamma_oracle"] == 7


def test_construct_wheel(capsys):
    code = run_cli(
        ["construct", "--family", "wheel", "--n", "4",
         "--config", "11 0 0 0 0", "--algorithm", "wheel"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "moves=4"
    assert lines[1:5] == ["0 1", "0 2", "0 3", "0 4"]
    assert lines[5] == "final=3 1 1 1 1"


def test_construct_replay_failure_exits_three(capsys, monkeypatch):
    real = cli.solve_wheel

    def short(g, c):
        cert = real(g, c)
        return dataclasses.replace(cert, moves=cert.moves[:-1])

    monkeypatch.setattr(cli, "solve_wheel", short)
    code = run_cli(
        ["construct", "--family", "wheel", "--n", "4",
         "--config", "11 0 0 0 0", "--algorithm", "wheel"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert len(captured.err.splitlines()) == 1


def test_construct_diameter_prints_trace(capsys):
    code = run_cli(
        ["construct", "--family", "path", "--n", "3",
         "--config", "7 0 0", "--algorithm", "diameter"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "final=1 1 1" in out
    assert "step 0:" in out
    assert "handoff:" in out


def test_construct_pigeonhole(capsys):
    code = run_cli(
        ["construct", "--family", "path", "--n", "3", "--config", "5 0 0",
         "--weighting", "1 0 1", "--algorithm", "pigeonhole"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "moves=3"
    assert "final=1 0 1" in out


def test_construct_multipartite_uses_family_sizes(capsys):
    code = run_cli(
        ["construct", "--family", "multipartite", "--sizes", "2,2",
         "--config", "9 0 0 0", "--algorithm", "multipartite"]
    )
    out = capsys.readouterr().out
    assert code == 0
    final = [int(x) for x in out.splitlines()[-1].split("=")[1].split()]
    assert len(final) == 4 and min(final) >= 1


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "coverpebble.cli", "gamma",
         "--family", "multipartite", "--sizes", "2,1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "gamma=7"
