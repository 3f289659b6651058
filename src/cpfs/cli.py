"""Command-line interface.

Subcommands:

    solve       run the decision pipeline, write tables, print the ranking
    fuse        fuse point-value collections into circular values
    complexity  evaluate the operation-count model (optionally as a sweep grid)
    validate    parse and validate a problem document

Exit status is 0 on success and 2 on any parse/validation error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .aggregation import OPERATOR_NAMES
from .datasets import case_study_path
from .errors import CircularFuzzyError
from .fusion import fuse
from .mcdm import complexity_estimate, complexity_sweep, solve
from .rounding import format_fixed
from .serialize import load_collections, load_config, load_problem, write_solve_tables

_OPERATOR_ALIASES = {"q": "cpwa_q", "p": "cpwa_p"}


def _operator_name(raw: str) -> str:
    return _OPERATOR_ALIASES.get(raw, raw)


def _precision(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = {} if args.config is None else load_config(args.config)
    operator = _operator_name(args.operator or config.get("operator", "cpwa_q"))
    precision = args.precision if args.precision is not None else config.get("precision", 2)
    aggregate_precision = config.get("aggregate_precision", precision)

    problem = load_problem(args.input)
    result = solve(problem, operator, aggregate_precision=aggregate_precision)

    if args.out_dir is not None:
        files = write_solve_tables(result, args.out_dir, precision=precision)
        for name in sorted(files):
            print(f"wrote {files[name]}")
    print(f"operator: {operator}")
    print(f"ranking: {result.ranking.ascending_string()}")
    print(f"best alternative: {result.ranking.best}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    rows = load_collections(args.input)
    precision = args.precision if args.precision is not None else 2
    print("label,mu,nu,r")
    for label, values in rows:
        v = fuse(values)
        print(
            f"{label},{format_fixed(v.mu, precision)},"
            f"{format_fixed(v.nu, precision)},{format_fixed(v.r, precision)}"
        )
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    operator = _operator_name(args.operator)
    if args.sweep:
        print("k,n,m,count")
        rows = complexity_sweep(
            range(2, args.k + 1), range(2, args.n + 1), range(1, args.m + 1), operator
        )
        for k, n, m, count in rows:
            print(f"{k},{n},{m},{count}")
    else:
        print(complexity_estimate(args.k, args.n, args.m, operator))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problem = load_problem(args.input)
    m, n, k = problem.shape
    print(f"OK: {m} experts x {n} alternatives x {k} criteria")
    return 0


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
    p_solve.add_argument("--operator", choices=OPERATOR_NAMES, default=None)
    p_solve.add_argument(
        "--precision", type=_precision, default=None, help="display decimals (default 2)"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_fuse = sub.add_parser("fuse", help="fuse point-value collections into circular values")
    p_fuse.add_argument("--input", required=True, help="collections JSON")
    p_fuse.add_argument("--precision", type=_precision, default=None)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_comp = sub.add_parser("complexity", help="evaluate the operation-count model")
    p_comp.add_argument("k", type=int, help="criteria count (>= 2)")
    p_comp.add_argument("n", type=int, help="alternatives count (>= 2)")
    p_comp.add_argument("m", type=int, help="experts count (>= 1)")
    p_comp.add_argument(
        "--operator", default="cpwa_q",
        help="operator name, or 'q'/'p' for the variant family (default cpwa_q)",
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircularFuzzyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
