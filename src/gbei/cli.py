"""Command-line front end.

Subcommands: classify | invariants | verify | corpus.  Graph files list the
vertex count on the first data line and one edge per following line; blank
lines and # comments are ignored.  Reports go to stdout as text, or as
canonical JSON with --json; diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 requested
work skipped under --strict.
"""

from __future__ import annotations

import argparse
import sys

from .graphs import GraphParseError, SizeCap, parse_graph
from .report import (
    DEFAULT_MAX_VARS,
    PRIME_CHECK_DEFAULT_LIMIT,
    classify_report,
    corpus_stream,
    has_failure,
    has_skip,
    invariants_report,
    render_text,
    to_json,
    verify_report,
    write_corpus,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_STRICT_SKIP = 3


def _add_shared_flags(sub: argparse.ArgumentParser, rows: bool, strict_help: str):
    if rows:
        sub.add_argument("--rows", required=True, type=int, metavar="M", help="row count m >= 2")
    sub.add_argument("--json", action="store_true", help="canonical JSON instead of text")
    sub.add_argument("--strict", action="store_true", help=strict_help)


def _add_graph_flags(sub: argparse.ArgumentParser, rows_required: bool):
    sub.add_argument("--graph", required=True, metavar="PATH", help="graph file")
    _add_shared_flags(sub, rows_required, "exit 3 when any stage is skipped")


def _add_check_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS, metavar="V",
                     help="largest grid (rows x vertices) the homology oracle will attempt")
    sub.add_argument("--with-primes", action="store_true",
                     help=f"force the prime-intersection check past {PRIME_CHECK_DEFAULT_LIMIT} variables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbei",
        description="Generalized binomial edge ideals: classification, closed-form "
        "invariants, Groebner bases, and homological cross-checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="classification and cut-set census")
    _add_graph_flags(p, rows_required=False)

    p = subs.add_parser("invariants", help="closed-form depth/regularity, dimension, unmixedness")
    _add_graph_flags(p, rows_required=True)

    p = subs.add_parser("verify", help="invariants plus oracle cross-checks")
    _add_graph_flags(p, rows_required=True)
    _add_check_flags(p)

    p = subs.add_parser("corpus", help="sweep all connected graphs of a given size")
    p.add_argument("--enumerate", required=True, type=int, metavar="N", dest="enumerate_n",
                   help="vertex count, at most 7")
    _add_shared_flags(p, True, "exit 3 when some graph's checks were all skipped, or its formulas were")
    p.add_argument("--filter", choices=["gblock", "block", "all"], default="gblock")
    p.add_argument("--verify", action="store_true", help="run the verification checks per graph")
    _add_check_flags(p)

    return parser


def _load_graph(path: str):
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_graph(fh.read())


def _input_error(err) -> int:
    print(f"gbei: error: {err}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "rows", 2) < 2:
        return _input_error(f"need at least 2 rows, got {args.rows}")
    if getattr(args, "enumerate_n", 1) < 1:
        return _input_error("need n >= 1")
    if getattr(args, "max_vars", 0) < 0:
        return _input_error(f"need --max-vars >= 0, got {args.max_vars}")
    try:
        if args.command == "corpus":
            report = corpus_stream(
                args.enumerate_n,
                args.rows,
                args.filter,
                args.verify,
                max_vars=args.max_vars,
                with_primes=args.with_primes,
            )
        else:
            g = _load_graph(args.graph)
            if args.command == "classify":
                report = classify_report(g)
            elif args.command == "invariants":
                report = invariants_report(g, args.rows)
            else:
                report = verify_report(
                    g, args.rows, max_vars=args.max_vars, with_primes=args.with_primes
                )
    except (OSError, UnicodeDecodeError, GraphParseError, SizeCap) as err:
        return _input_error(err)  # any other error is a defect, not bad input

    if args.command == "corpus":  # each row is written as it is built
        tally = write_corpus(sys.stdout, report, args.json)
        failed, skipped = tally.summary["fail"] > 0, tally.skipped
    else:
        sys.stdout.write(to_json(report) if args.json else render_text(report))
        failed, skipped = has_failure(report), has_skip(report)
    if failed:
        return EXIT_VERIFICATION_FAILED
    if args.strict and skipped:
        return EXIT_STRICT_SKIP
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
