"""Command-line front end.

Every command is a pure function of its arguments and input files; reports
go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage error,
2 input or parse error, 3 unresolved classification (or an unmet group
hypothesis), 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache
from typing import Optional, Sequence

from . import census as census_mod
from .errors import (
    BudgetExceededError,
    GemError,
    HypothesisViolatedError,
    UnresolvedResidueError,
)
from .graph import ColoredGraph, Equivalence, export_dot, format_gem, parse_gem
from .invariants import classify_small, g_degree, pi1_presentation
from .groups import homology_h1
from .moves import inflate, internalize, simplify, suspend
from .residues import is_supercontracted
from .singularity import (
    euler_characteristics,
    h1_manifold,
    is_closed_manifold,
    is_singular_manifold,
    singular_summary,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3
EXIT_BUDGET = 4


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit()


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


@cache  # one parser per process: main may run many commands
def build_parser() -> _Parser:
    top = _Parser(prog="gemkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="parse and validate GEM files")
    pv.add_argument("files", nargs="+")

    pa = sub.add_parser("analyze", help="full invariant report for one graph")
    pa.add_argument("file")
    pa.add_argument("--format", choices=("text", "records"), default="text")

    pt = sub.add_parser("transform", help="apply moves and emit the result")
    pt.add_argument("file")
    pt.add_argument("--suspend", type=int, action="append", default=[], metavar="C",
                    help="duplicate color C as a new color (repeatable, in order)")
    pt.add_argument("--inflate", type=_count, default=0, metavar="K",
                    help="add K random proper dipoles")
    pt.add_argument("--seed", type=int, default=0, help="seed for --inflate")
    pt.add_argument("--simplify", action="store_true",
                    help="cancel proper dipoles until none are certified")
    pt.add_argument("--internalize", action="store_true",
                    help="grow until some vertex has index zero")
    pt.add_argument("-o", "--output", default=None)

    pg = sub.add_parser("gdegree", help="regular genera and G-degree report")
    pg.add_argument("file")
    pg.add_argument("--format", choices=("text", "records"), default="text")

    pp = sub.add_parser("group", help="fundamental-group presentation and H1")
    pp.add_argument("file")
    pp.add_argument("--color", type=int, default=0)
    pp.add_argument("--target", choices=("m", "hatm", "cgroup"), default="m")

    pc = sub.add_parser("classify", help="name the manifold of a small graph")
    pc.add_argument("file")

    pe = sub.add_parser("enumerate", help="isomorph-free census")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--order", type=int, required=True)
    pe.add_argument("--eq", choices=("color-permuting", "color-preserving"),
                    default="color-permuting")
    pe.add_argument("--supercontracted", action="store_true")
    group = pe.add_mutually_exclusive_group()
    group.add_argument("--bipartite", action="store_true")
    group.add_argument("--non-bipartite", action="store_true")
    pe.add_argument("--no-ordinary-dipoles", action="store_true")
    pe.add_argument("-o", "--output", default=None)

    pr = sub.add_parser("report", help="invariant survey over a catalogue")
    pr.add_argument("file")

    pd = sub.add_parser("export-dot", help="Graphviz rendering of a graph")
    pd.add_argument("file")
    pd.add_argument("-o", "--output", default=None)

    return top


def _load(path: str) -> ColoredGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_gem(fh.read())


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _records(pairs: dict) -> str:
    return "\n".join(f"{k}={_fmt(v)}" for k, v in sorted(pairs.items())) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "unknown"
    return str(v)


# ============================================================
# Commands
# ============================================================


def cmd_validate(args) -> int:
    for path in args.files:
        g = _load(path)
        print(f"{path}: ok n={g.n} order={g.order}")
    return EXIT_OK


def _analysis_records(g: ColoredGraph) -> tuple[dict, bool]:
    # classified first, so that the lattice reads its color sets by rank and
    # joins the n-color sets that `is_supercontracted` reads from smaller ones
    unresolved = bool(g.classification.unresolved)
    rec: dict = {
        "n": g.n,
        "order": g.order,
        "bipartite": g.is_bipartite() is not None,
        "supercontracted": is_supercontracted(g),
    }
    if unresolved:
        rec.update(
            chi_M=None, chi_hatM=None, chi_singular=None,
            closed=None, singular_manifold=None, boundary_components=None,
            singular_dimension=None, h1=None,
        )
    else:
        chis = euler_characteristics(g)
        summary = singular_summary(g)
        rec.update(
            chi_M=chis.chi_m,
            chi_hatM=chis.chi_hat_m,
            chi_singular=chis.chi_singular_set,
            closed=is_closed_manifold(g),
            singular_manifold=is_singular_manifold(g),
            boundary_components=len(summary.components),
            singular_dimension="empty" if summary.is_empty else summary.dimension,
            h1=str(h1_manifold(g)),
        )
    if g.n >= 2:
        report = g_degree(g)
        rec["omega_G"] = report.omega
        if g.n == 4:
            rec["omega_G_reduced"] = report.omega_reduced
            rec["rho_G"] = report.rho
    return rec, unresolved


def cmd_analyze(args) -> int:
    g = _load(args.file)
    rec, unresolved = _analysis_records(g)
    if args.format == "text":
        print(f"analysis of {args.file}")
    sys.stdout.write(_records(rec))
    return EXIT_UNRESOLVED if unresolved else EXIT_OK


def cmd_transform(args) -> int:
    g = _load(args.file)
    for c in args.suspend:
        g = suspend(g, c)
    if args.inflate:
        g = inflate(g, args.inflate, random.Random(args.seed))
    if args.simplify:
        result = simplify(g)
        g = result.graph
        if not result.complete:
            print("simplify: stalled on unclassified dipoles", file=sys.stderr)
    if args.internalize:
        g = internalize(g)
    _emit(format_gem(g), args.output)
    return EXIT_OK


def cmd_gdegree(args) -> int:
    g = _load(args.file)
    report = g_degree(g)
    rec: dict = {"n": report.n, "p": report.p, "omega_G": report.omega}
    if report.n == 4:
        rec["omega_G_reduced"] = report.omega_reduced
        rec["rho_G"] = report.rho
        checks = report.checks
        rec["check_multiple_of_three"] = checks.multiple_of_three
        rec["check_closed_form"] = checks.closed_form
        rec["check_subdegree"] = checks.subdegree
        rec["check_pair_relation"] = all(checks.pair_relation.values())
    if args.format == "text":
        for eps, rho in sorted(report.genera.items()):
            print(f"rho{eps} = {rho}")
    sys.stdout.write(_records(rec))
    return EXIT_OK


def cmd_group(args) -> int:
    g = _load(args.file)
    pres = pi1_presentation(g, args.color, args.target)
    sys.stdout.write(pres.format_lines())
    print(f"h1={homology_h1(pres)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _load(args.file)
    name = classify_small(g)
    print(name if name is not None else "unknown")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    params = census_mod.CensusParams(
        n=args.n,
        order=args.order,
        equivalence=Equivalence(args.eq),
        bipartite=True if args.bipartite else (False if args.non_bipartite else None),
        supercontracted=args.supercontracted,
        no_ordinary_dipoles=args.no_ordinary_dipoles,
    )
    cat = census_mod.enumerate_census(params)
    _emit(census_mod.format_catalogue(cat), args.output)
    if args.output:
        print(
            f"count={cat.count} bipartite={cat.bipartite_count} "
            f"nonbipartite={cat.nonbipartite_count}"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        cat = census_mod.parse_catalogue(fh.read())
    report = census_mod.census_report(cat)
    sys.stdout.write(report.format_text())
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = _load(args.file)
    _emit(export_dot(g), args.output)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "transform": cmd_transform,
    "gdegree": cmd_gdegree,
    "group": cmd_group,
    "classify": cmd_classify,
    "enumerate": cmd_enumerate,
    "report": cmd_report,
    "export-dot": cmd_export_dot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (UnresolvedResidueError, HypothesisViolatedError) as exc:
        print(f"gemkit: unresolved: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except BudgetExceededError as exc:
        print(f"gemkit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GemError, OSError, ValueError) as exc:
        print(f"gemkit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
