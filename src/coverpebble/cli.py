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
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import get_type_hints

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
)
from .exact import check_threshold_size, gamma_exact, solve
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


class _Once(argparse.Action):
    # a second value would silently replace the first
    def __call__(self, _parser, namespace, values, _option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, values)


@dataclass(frozen=True)
class VerificationReport:
    """One row of a verify run."""

    graph: str
    gamma_formula: int
    gamma_oracle: int
    bound_lower: int
    bound_upper: int
    witness: Configuration
    configs_checked: int
    elapsed_ms: int
    status: str


_REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


def report_status(gamma_formula: int, gamma_oracle: int, bound_lower: int, bound_upper: int) -> str:
    """mismatch beats bound-violation beats match; both cannot occur at
    once when the oracle is correct."""
    if gamma_formula != gamma_oracle:
        return "mismatch"
    if not bound_lower <= gamma_oracle <= bound_upper:
        return "bound-violation"
    return "match"


def emit_report(reports, fmt: str = "json") -> str:
    """Serialize verification rows, one per line, fields in a fixed order
    shared by both formats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(_REPORT_FIELDS)
    for r in reports:
        row = {field: getattr(r, field) for field in _REPORT_FIELDS}
        if fmt == "json":
            row["witness"] = list(r.witness.counts)
            buf.write(json.dumps(row) + "\n")
        else:
            row["witness"] = format_config(r.witness)
            writer.writerow(row.values())
    return buf.getvalue()


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file: {exc}") from None


def _parse_range(text: str, what: str) -> range:
    # either a single integer or an inclusive span like 3..5
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise UsageError(f"{what} must be an integer or a range like 3..5") from None
    if hi < lo:
        raise UsageError(f"empty range for {what}: {text}")
    return range(lo, hi + 1)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"sizes must be comma separated integers, got {text!r}") from None


# family name -> (spec type, the value verify compares with the search,
# from the spec and the diameter bound).
# A family's flags are its spec type's fields: an int field takes one
# integer, or in verify a range, and the class sizes one list per use.  A
# path or a star is a fuse, and the diameter bound is sharp on fuses.
_FAMILIES = {
    "multipartite": (Multipartite, lambda spec, _: gamma_multipartite(spec.sizes)),
    "wheel": (Wheel, lambda spec, _: gamma_wheel(spec.n)),
    "fuse": (Fuse, lambda _, upper: upper),
    "path": (Path, lambda _, upper: upper),
    "star": (Star, lambda _, upper: upper),
}

# Most graphs one verify range may name: each gets an exact check, so a
# longer range could not finish.
MAX_RANGE_GRAPHS = 1_000


def _refuse_unread(args, taken) -> None:
    # a family flag that the graph does not take would go unread
    for make, _ in _FAMILIES.values():
        for flag in get_type_hints(make):
            if flag not in taken and getattr(args, flag) is not None:
                raise UsageError(f"{args.family or 'a graph file'} does not take --{flag}")


def _family_specs(args, one: bool = False) -> list[tuple[str, FamilySpec]]:
    """Expand family arguments (ranges allowed) into labeled specs.  A
    range naming more than MAX_RANGE_GRAPHS graphs, or with one=True more
    than one, is refused before any spec is built."""
    make, _ = _FAMILIES[args.family]
    flags = get_type_hints(make)
    _refuse_unread(args, flags)
    texts = [getattr(args, flag) for flag in flags]
    if None in texts:
        raise UsageError(f"{args.family} needs " + " and ".join("--" + f for f in flags))
    spans = [_parse_range(text, "--" + flag) if kind is int else [_parse_sizes(t) for t in text]
             for (flag, kind), text in zip(flags.items(), texts)]
    # count a range from its ends: len() overflows on spans past sys.maxsize
    count = math.prod(s[-1] - s[0] + 1 if isinstance(s, range) else len(s) for s in spans)
    if one and count > 1:
        raise UsageError("this command takes exactly one graph, not a range")
    if count > MAX_RANGE_GRAPHS:
        raise UsageError(f"the ranges give {count} parameter sets, more than the limit of {MAX_RANGE_GRAPHS}")
    out = []
    for params in itertools.product(*spans):
        # a fuse range may name pairs with no fuse; skip them
        if make is Fuse and not 1 <= params[1] <= params[0] - 1:
            continue
        text = ",".join(str(p) if isinstance(p, int) else ",".join(map(str, p)) for p in params)
        out.append((f"{args.family}[{text}]", make(*params)))
    if not out:
        raise UsageError(f"the given ranges name no valid {args.family}")
    return out


def _load_graph(args) -> Graph:
    if args.graph is not None:
        _refuse_unread(args, ())
        return parse_graph_text(_read_file(args.graph, "graph"))
    [(_, spec)] = _family_specs(args, one=True)
    return generate(spec)


def _write_out(args, text: str) -> None:
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    [(_, spec)] = _family_specs(args, one=True)
    _write_out(args, format_graph_text(generate(spec)))
    return 0


def _read_config_arg(args, g: Graph) -> Configuration:
    if args.config is not None:
        return parse_config(args.config, g.n)
    return parse_config(_read_file(args.config_file, "configuration"), g.n)


def cmd_solve(args) -> int:
    g = _load_graph(args)
    c = _read_config_arg(args, g)
    b = parse_weighting(args.weighting, g.n) if args.weighting is not None else None
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
    g = _load_graph(args)
    result = gamma_exact(g)
    print(f"gamma={result.gamma}")
    print(f"witness={format_config(result.witness)}")
    print(f"configs_checked={result.configs_checked}")
    return 0


def cmd_bound(args) -> int:
    g = _load_graph(args)
    report = bound_report(g)
    print(f"lower_stacked={report.lower_stacked}")
    print(f"upper_diameter={report.upper_diameter}")
    print("stack_costs=" + " ".join(str(x) for x in report.stack_costs))
    return 0


def cmd_verify(args) -> int:
    specs = _family_specs(args)
    _, formula_value = _FAMILIES[args.family]
    # a range with one graph too big to check is refused before any runs.
    # Each graph is dropped here and generated again below: keeping all of
    # star 1..723 alive would hold about 1.3e8 distance entries, about
    # 130 MB even as byte rows.  Only its two bounds are kept, not its n
    # stack costs.
    bounds = []
    for _, spec in specs:
        g = generate(spec)
        report = bound_report(g)
        check_threshold_size(g, report.lower_stacked)
        bounds.append((report.lower_stacked, report.upper_diameter))
    reports = []
    for (label, spec), (lower, upper) in zip(specs, bounds):
        g = generate(spec)
        started = time.perf_counter()
        result = gamma_exact(g)
        elapsed_ms = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
        formula = formula_value(spec, upper)
        reports.append(
            VerificationReport(
                graph=label,
                gamma_formula=formula,
                gamma_oracle=result.gamma,
                bound_lower=lower,
                bound_upper=upper,
                witness=result.witness,
                configs_checked=result.configs_checked,
                elapsed_ms=elapsed_ms,
                status=report_status(formula, result.gamma, lower, upper),
            )
        )
    _write_out(args, emit_report(reports, args.format))
    return 0 if all(r.status == "match" for r in reports) else 1


def cmd_construct(args) -> int:
    if (args.weighting is not None) != (args.algorithm == "pigeonhole"):
        raise UsageError("--weighting goes with --algorithm pigeonhole, and only with it")
    g = _load_graph(args)
    c = _read_config_arg(args, g)
    trace = None
    weighting = None
    if args.algorithm == "pigeonhole":
        weighting = parse_weighting(args.weighting, g.n)
        cert = solve_pigeonhole(g, weighting, c)
    elif args.algorithm == "diameter":
        cert, trace = solve_diameter(g, c)
    elif args.algorithm == "wheel":
        cert = solve_wheel(g, c)
    else:
        # the classes are the runs of consecutive vertices with no edge
        # between them, each starting where a vertex meets the one before;
        # solve_multipartite refuses a graph that is not K(runs, largest first)
        starts = [0, *(v for v in range(1, g.n) if g.dist[v][v - 1] == 1), g.n]
        cert = solve_multipartite(g, sorted((b - a for a, b in zip(starts, starts[1:])), reverse=True), c)
    # never print a certificate that does not replay cleanly
    try:
        final = validate_certificate(g, cert, weighting)
    except (IllegalMoveAt, NotCoveredAtEnd) as exc:
        raise InternalAssertion(f"{args.algorithm} certificate fails replay: {exc}") from None
    print(f"moves={len(cert.moves)}")
    for move in cert.moves:
        print(f"{move.src} {move.dst}")
    print(f"final={format_config(final)}")
    if trace is not None:
        sys.stdout.write(format_trace(trace))
    return 0


def _add_graph_args(sub):
    """Declare every family flag and --family.  Returns the required
    either/or group, to which a command that reads a graph file adds
    --graph."""
    takers = {}
    for family, (make, _) in _FAMILIES.items():
        for flag_kind in get_type_hints(make).items():
            takers.setdefault(flag_kind, []).append(family)
    for (flag, kind), families in takers.items():
        if kind is int:
            sub.add_argument("--" + flag, action=_Once, help=", ".join(families) + "; verify takes a range like 3..5")
        else:
            sub.add_argument("--" + flag, action="append", help=", ".join(families) + "; like 2,2, repeated in verify")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=_FAMILIES)
    return source


def _add_config_args(sub) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="space separated pebble counts")
    source.add_argument("--config-file", metavar="FILE")


def build_parser() -> _Parser:
    parser = _Parser(prog="coverpebble", description="cover pebbling toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="write a family graph as text")
    _add_graph_args(gen)
    gen.add_argument("--out", metavar="FILE")
    gen.set_defaults(func=cmd_gen)

    slv = commands.add_parser("solve", help="decide one configuration")
    _add_graph_args(slv).add_argument("--graph", metavar="FILE", help="graph text file")
    _add_config_args(slv)
    slv.add_argument("--weighting", help="space separated 0/1 marks")
    slv.add_argument("--budget", type=int, help="state budget for the search")
    slv.set_defaults(func=cmd_solve)

    gam = commands.add_parser("gamma", help="exact cover pebbling number")
    _add_graph_args(gam).add_argument("--graph", metavar="FILE", help="graph text file")
    gam.set_defaults(func=cmd_gamma)

    ver = commands.add_parser("verify", help="formulas against the search")
    _add_graph_args(ver)
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--no-timing", action="store_true", help="report elapsed_ms as 0")
    ver.add_argument("--out", metavar="FILE")
    ver.set_defaults(func=cmd_verify)

    bnd = commands.add_parser("bound", help="bound sandwich for a graph")
    _add_graph_args(bnd).add_argument("--graph", metavar="FILE", help="graph text file")
    bnd.set_defaults(func=cmd_bound)

    con = commands.add_parser("construct", help="constructive certificate")
    _add_graph_args(con).add_argument("--graph", metavar="FILE", help="graph text file")
    con.add_argument(
        "--algorithm",
        required=True,
        choices=["pigeonhole", "diameter", "wheel", "multipartite"],
    )
    _add_config_args(con)
    con.add_argument("--weighting", help="space separated 0/1 marks (pigeonhole)")
    con.set_defaults(func=cmd_construct)

    return parser


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InternalAssertion as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except PebblingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
