"""Command line front end.

Subcommands: gen (write a family graph as text), solve (decide one
configuration), gamma (exact cover pebbling number), verify (compare
closed forms against the exhaustive search over parameter ranges),
bound (print the bound sandwich), construct (run a constructive solver
and print its validated certificate).

Exit codes: 0 when the answer is positive (solvable, match, value
printed), 1 for a negative answer (unsolvable, witness found, some
verification mismatched), 2 for usage and input errors, 3 when an
internal consistency check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

from .constructive import (
    format_trace,
    solve_diameter,
    solve_multipartite,
    solve_pigeonhole,
    solve_wheel,
)
from .errors import (
    BudgetExceeded,
    IllegalMoveAt,
    InternalAssertion,
    NotCoveredAtEnd,
    PebblingError,
    StrategyIncomplete,
)
from .exact import gamma_exact, solve
from .formulas import bound_report, gamma_multipartite, gamma_wheel
from .graphs import (
    FamilySpec,
    Fuse,
    Graph,
    Multipartite,
    Path,
    Star,
    Wheel,
    format_graph_text,
    generate,
    parse_graph_text,
)
from .pebbles import (
    Configuration,
    format_config,
    parse_config,
    parse_weighting,
    validate_certificate,
)


class UsageError(PebblingError):
    """Bad command line arguments."""


class _Parser(argparse.ArgumentParser):
    # keep diagnostics to one line and exit code 2 for any usage problem
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class VerificationReport:
    """One row of a verify run."""

    graph: str
    gamma_formula: Optional[int]
    gamma_oracle: Optional[int]
    bound_lower: int
    bound_upper: int
    witness: Optional[Configuration]
    configs_checked: int
    elapsed_ms: int
    status: str


_REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


def report_status(
    gamma_formula: Optional[int],
    gamma_oracle: Optional[int],
    bound_lower: int,
    bound_upper: int,
) -> str:
    """mismatch beats bound-violation beats match/ok; both cannot occur
    at once when the oracle is correct."""
    if gamma_formula is not None and gamma_oracle is not None and gamma_formula != gamma_oracle:
        return "mismatch"
    if gamma_oracle is not None and not bound_lower <= gamma_oracle <= bound_upper:
        return "bound-violation"
    if gamma_formula is not None and gamma_oracle is not None:
        return "match"
    return "ok"


def emit_report(reports, fmt: str = "json") -> str:
    """Serialize verification rows, one per line, fields in a fixed order
    shared by both formats."""
    if fmt == "json":
        lines = []
        for r in reports:
            row = {}
            for field in _REPORT_FIELDS:
                value = getattr(r, field)
                if field == "witness":
                    value = list(value.counts) if value is not None else None
                row[field] = value
            lines.append(json.dumps(row))
        return "".join(line + "\n" for line in lines)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_FIELDS)
        for r in reports:
            row = []
            for field in _REPORT_FIELDS:
                value = getattr(r, field)
                if field == "witness":
                    value = format_config(value) if value is not None else ""
                elif value is None:
                    value = ""
                row.append(value)
            writer.writerow(row)
        return buf.getvalue()
    raise UsageError(f"unknown report format {fmt!r}")


def _load_graph_path(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read graph file: {exc}") from None
    return parse_graph_text(text)


def _parse_range(text: str, what: str) -> list[int]:
    # either a single integer or an inclusive span like 3..5
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise UsageError(f"empty range for {what}: {text}")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"{what} must be an integer or a range like 3..5") from None


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"sizes must be comma separated integers, got {text!r}") from None


def _family_specs(args) -> list[tuple[str, FamilySpec]]:
    """Expand family arguments (ranges allowed) into labeled specs."""
    family = args.family
    if family == "multipartite":
        if not args.sizes:
            raise UsageError("multipartite needs --sizes")
        out = []
        for text in args.sizes:
            sizes = _parse_sizes(text)
            label = "multipartite[" + ",".join(str(s) for s in sizes) + "]"
            out.append((label, Multipartite(sizes)))
        return out
    if family == "wheel":
        if args.n is None:
            raise UsageError("wheel needs --n")
        return [(f"wheel[{n}]", Wheel(n)) for n in _parse_range(args.n, "--n")]
    if family == "fuse":
        if args.n is None or args.d is None:
            raise UsageError("fuse needs --n and --d")
        out = []
        for n in _parse_range(args.n, "--n"):
            for d in _parse_range(args.d, "--d"):
                if 1 <= d <= n - 1:
                    out.append((f"fuse[{n},{d}]", Fuse(n, d)))
        if not out:
            raise UsageError("no valid (n, d) pairs in the given fuse ranges")
        return out
    if family == "path":
        if args.n is None:
            raise UsageError("path needs --n")
        return [(f"path[{n}]", Path(n)) for n in _parse_range(args.n, "--n")]
    if family == "star":
        if args.leaves is None:
            raise UsageError("star needs --leaves")
        return [(f"star[{k}]", Star(k)) for k in _parse_range(args.leaves, "--leaves")]
    raise UsageError("unknown family; pick multipartite, wheel, fuse, path or star")


def _load_graph(args) -> tuple[str, Graph, Optional[FamilySpec]]:
    if getattr(args, "graph", None):
        if getattr(args, "family", None):
            raise UsageError("give either --graph or --family, not both")
        return args.graph, _load_graph_path(args.graph), None
    if getattr(args, "family", None):
        specs = _family_specs(args)
        if len(specs) != 1:
            raise UsageError("this command takes exactly one graph, not a range")
        label, spec = specs[0]
        return label, generate(spec), spec
    raise UsageError("a graph is required: give --graph FILE or --family ...")


def _formula_value(spec: Optional[FamilySpec], g: Graph) -> Optional[int]:
    if isinstance(spec, Multipartite):
        return gamma_multipartite(spec.sizes)
    if isinstance(spec, Wheel):
        return gamma_wheel(spec.n)
    if isinstance(spec, (Fuse, Path, Star)):
        # trees: the worst stack cost is exact
        return bound_report(g).lower_stacked
    return None


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if not args.family:
        raise UsageError("gen needs --family")
    specs = _family_specs(args)
    if len(specs) != 1:
        raise UsageError("gen writes exactly one graph, not a range")
    _, spec = specs[0]
    _write_out(args, format_graph_text(generate(spec)))
    return 0


def _read_config_arg(args, g: Graph) -> Configuration:
    if args.config is not None and args.config_file is not None:
        raise UsageError("give either --config or --config-file, not both")
    if args.config is not None:
        return parse_config(args.config, g.n)
    if args.config_file is not None:
        try:
            with open(args.config_file, "r", encoding="utf-8") as handle:
                return parse_config(handle.read(), g.n)
        except OSError as exc:
            raise UsageError(f"cannot read configuration file: {exc}") from None
    raise UsageError("a configuration is required: --config or --config-file")


def cmd_solve(args) -> int:
    _, g, _ = _load_graph(args)
    c = _read_config_arg(args, g)
    b = parse_weighting(args.weighting, g.n) if args.weighting else None
    try:
        outcome = solve(g, c, b, budget=args.budget)
    except BudgetExceeded as exc:
        print(f"undecided: {exc}")
        return 2
    print(outcome.decision)
    print(f"states={outcome.states_explored}")
    if outcome.solvable:
        print(f"moves={len(outcome.certificate.moves)}")
        for move in outcome.certificate.moves:
            print(f"{move.src} {move.dst}")
        return 0
    return 1


def cmd_gamma(args) -> int:
    _, g, _ = _load_graph(args)
    result = gamma_exact(g)
    print(f"gamma={result.gamma}")
    print(f"witness={format_config(result.witness)}")
    print(f"configs_checked={result.configs_checked}")
    return 0


def cmd_bound(args) -> int:
    _, g, _ = _load_graph(args)
    report = bound_report(g)
    print(f"lower_stacked={report.lower_stacked}")
    print(f"upper_diameter={report.upper_diameter}")
    print("stack_costs=" + " ".join(str(x) for x in report.stack_costs))
    return 0


def cmd_verify(args) -> int:
    if not args.family:
        raise UsageError("verify needs --family")
    reports = []
    for label, spec in _family_specs(args):
        g = generate(spec)
        started = time.perf_counter()
        bounds = bound_report(g)
        result = gamma_exact(g)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        if args.no_timing:
            elapsed_ms = 0
        formula = _formula_value(spec, g)
        status = report_status(formula, result.gamma, bounds.lower_stacked, bounds.upper_diameter)
        reports.append(
            VerificationReport(
                graph=label,
                gamma_formula=formula,
                gamma_oracle=result.gamma,
                bound_lower=bounds.lower_stacked,
                bound_upper=bounds.upper_diameter,
                witness=result.witness,
                configs_checked=result.configs_checked,
                elapsed_ms=elapsed_ms,
                status=status,
            )
        )
    _write_out(args, emit_report(reports, args.format))
    return 0 if all(r.status in ("match", "ok") for r in reports) else 1


def cmd_construct(args) -> int:
    label, g, spec = _load_graph(args)
    c = _read_config_arg(args, g)
    trace = None
    weighting = None
    if args.algorithm == "pigeonhole":
        if not args.weighting:
            raise UsageError("pigeonhole needs --weighting")
        weighting = parse_weighting(args.weighting, g.n)
        cert = solve_pigeonhole(g, weighting, c)
    elif args.algorithm == "diameter":
        cert, trace = solve_diameter(g, c)
    elif args.algorithm == "wheel":
        cert = solve_wheel(g, c)
    elif args.algorithm == "multipartite":
        if isinstance(spec, Multipartite):
            sizes = spec.sizes
        elif args.sizes:
            sizes = _parse_sizes(args.sizes[0])
        else:
            raise UsageError("multipartite construction needs --sizes or --family multipartite")
        cert = solve_multipartite(g, sizes, c)
    else:
        raise UsageError(f"unknown algorithm {args.algorithm!r}")
    # never print a certificate that does not replay cleanly
    try:
        final = validate_certificate(g, cert, weighting)
    except (IllegalMoveAt, NotCoveredAtEnd) as exc:
        raise InternalAssertion(f"{args.algorithm} certificate fails replay: {exc}") from None
    print(f"moves={len(cert.moves)}")
    for move in cert.moves:
        print(f"{move.src} {move.dst}")
    print(f"final={format_config(final)}")
    if trace is not None and trace.steps:
        sys.stdout.write(format_trace(trace))
    return 0


def _nonnegative_int(text: str) -> int:
    """argparse type for an integer no smaller than 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_graph_args(sub) -> None:
    sub.add_argument("--graph", metavar="FILE", help="graph text file")
    sub.add_argument(
        "--family", choices=["multipartite", "wheel", "fuse", "path", "star"]
    )
    sub.add_argument("--sizes", action="append", help="class sizes, largest first, e.g. 2,2")
    sub.add_argument("--n", help="rim count / order (verify takes ranges like 3..5)")
    sub.add_argument("--d", help="fuse path length in edges")
    sub.add_argument("--leaves", help="star leaf count")


def build_parser() -> _Parser:
    parser = _Parser(prog="coverpebble", description="cover pebbling toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="write a family graph as text")
    _add_graph_args(gen)
    gen.add_argument("--out", metavar="FILE")
    gen.set_defaults(func=cmd_gen)

    slv = commands.add_parser("solve", help="decide one configuration")
    _add_graph_args(slv)
    slv.add_argument("--config", help="space separated pebble counts")
    slv.add_argument("--config-file", metavar="FILE")
    slv.add_argument("--weighting", help="space separated 0/1 marks")
    slv.add_argument("--budget", type=_nonnegative_int, help="state budget for the search")
    slv.set_defaults(func=cmd_solve)

    gam = commands.add_parser("gamma", help="exact cover pebbling number")
    _add_graph_args(gam)
    gam.set_defaults(func=cmd_gamma)

    ver = commands.add_parser("verify", help="formulas against the search")
    _add_graph_args(ver)
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--no-timing", action="store_true", help="report elapsed_ms as 0")
    ver.add_argument("--out", metavar="FILE")
    ver.set_defaults(func=cmd_verify)

    bnd = commands.add_parser("bound", help="bound sandwich for a graph")
    _add_graph_args(bnd)
    bnd.set_defaults(func=cmd_bound)

    con = commands.add_parser("construct", help="constructive certificate")
    _add_graph_args(con)
    con.add_argument(
        "--algorithm",
        required=True,
        choices=["pigeonhole", "diameter", "wheel", "multipartite"],
    )
    con.add_argument("--config", help="space separated pebble counts")
    con.add_argument("--config-file", metavar="FILE")
    con.add_argument("--weighting", help="space separated 0/1 marks (pigeonhole)")
    con.set_defaults(func=cmd_construct)

    return parser


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InternalAssertion, StrategyIncomplete) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except PebblingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
