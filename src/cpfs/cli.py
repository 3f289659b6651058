"""Command-line interface.

Subcommands:

    solve       run the decision pipeline, write tables, print the ranking
    fuse        fuse point-value collections into circular values
    complexity  evaluate the operation-count model (optionally as a sweep grid)
    validate    parse and validate a problem document

Exit status is 0 on success and 2 on any parse/validation error.

``build_parser`` builds the parser, binding the subcommand handlers, on its first call (the first
``main``) and returns that one parser for the rest of the process; help still wraps to the
terminal on each call, as argparse makes its formatter when it prints.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .aggregation import _operator_name
from .datasets import case_study_path
from .errors import CircularFuzzyError, DomainError
from .fusion import fuse
from .mcdm import complexity_estimate, complexity_sweep, solve
from .rounding import format_fixed, require_precision
from .serialize import _quoted, load_collections, load_config, load_problem
from .serialize import write_solve_tables


def _precision(text: str) -> int:
    # int() may refuse over 640 digits (the lowest limit it can be set to): longer text is checked as typed.
    try:
        return require_precision(int(text) if text.isdecimal() and len(text) <= 640 else text)
    except DomainError as err:  # argparse puts "argument --precision: " before the message
        raise argparse.ArgumentTypeError(Exception.__str__(err)) from None


def _cmd_solve(args: argparse.Namespace) -> int:
    config = {} if args.config is None else load_config(args.config)
    operator = args.operator if args.operator is not None else config.get("operator", "cpwa_q")
    operator = _operator_name(operator)
    precision = args.precision if args.precision is not None else config.get("precision", 2)

    # The precision sets only the tables' decimals: scoring takes the config's aggregate_precision, else solve's.
    problem = load_problem(args.input)
    result = solve(problem, operator, **{k: v for k, v in config.items() if k == "aggregate_precision"})

    if args.out_dir is not None:
        files = write_solve_tables(result, args.out_dir, precision=precision)
        for name in sorted(files):
            print(f"wrote {files[name]}")
    print(f"operator: {operator}")
    print(f"ranking: {result.ranking.ascending_string()}")
    print(f"best alternative: {result.ranking.best}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    rows = []
    for i, (label, values) in enumerate(load_collections(args.input)):
        try:
            value = fuse(values)
        except CircularFuzzyError as err:  # raised before the header, so a failure writes no partial table
            err.location = f"elements[{i}]"
            raise
        rows.append(",".join([_quoted(label), *(format_fixed(x, args.precision) for x in value.as_tuple())]))
    print("label,mu,nu,r", *rows, sep="\n")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    count = complexity_estimate(args.k, args.n, args.m, args.operator)  # checks every argument
    if args.sweep:
        print("k,n,m,count")
        grid = range(2, args.k + 1), range(2, args.n + 1), range(1, args.m + 1)
        for row in complexity_sweep(*grid, args.operator):
            print(*row, sep=",")
    else:
        print(count)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problem = load_problem(args.input)
    m, n, k = problem.shape
    print(f"OK: {m} experts x {n} alternatives x {k} criteria")
    return 0


@functools.cache  # parse_args writes only to the Namespace it returns
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfs",
        description="Circular Pythagorean fuzzy decision analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the decision pipeline on a problem document")
    p_solve.add_argument(
        "--input", default=str(case_study_path()),
        help="problem JSON (default: bundled photovoltaic example)",
    )
    p_solve.add_argument("--config", default=None, help="config JSON (operator, precision)")
    p_solve.add_argument("--out-dir", default=None, help="directory for CSV/JSON tables")
    p_solve.add_argument(
        "--operator", default=None, help="operator name, or 'q'/'p' (default: config, else cpwa_q)"
    )
    p_solve.add_argument(
        "--precision", type=_precision, default=None, help="display decimals (default 2)"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_fuse = sub.add_parser("fuse", help="fuse point-value collections into circular values")
    p_fuse.add_argument("--input", required=True, help="collections JSON")
    p_fuse.add_argument("--precision", type=_precision, default=2)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_comp = sub.add_parser("complexity", help="evaluate the operation-count model")
    p_comp.add_argument("k", type=int, help="criteria count (>= 2)")
    p_comp.add_argument("n", type=int, help="alternatives count (>= 2)")
    p_comp.add_argument("m", type=int, help="experts count (>= 1)")
    p_comp.add_argument(
        "--operator", default="cpwa_q",
        help="operator name, or 'q'/'p' for cpwa_q/cpwa_p (default cpwa_q)",
    )
    p_comp.add_argument(
        "--sweep", action="store_true",
        help="emit a CSV grid over k=2..K, n=2..N, m=1..M instead of one count",
    )
    p_comp.set_defaults(func=_cmd_complexity)

    p_val = sub.add_parser("validate", help="parse and validate a problem document")
    p_val.add_argument("--input", required=True)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircularFuzzyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
