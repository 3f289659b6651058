"""Shared sampling and comparison helpers for the test suite."""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from operator import mul
from pathlib import Path

from hypothesis import strategies as st

from cpfs import (
    CPFS,
    CPFV,
    PFV,
    CircularFuzzyError,
    DecisionProblem,
    DomainError,
    ParseError,
    WeightVector,
    algebraic_pair,
    dual_tconorm,
    format_fixed,
)
from cpfs.aggregation import _checked
from cpfs.algebra import _require_positive
from cpfs.generators import _weighted
from cpfs.rounding import require_precision
from cpfs.serialize import parse_problem, result_to_dict
from cpfs.values import _paired, _real, _shown

__all__ = [
    "make_rng",
    "sample_pfv",
    "sample_cpfv",
    "grow",
    "assert_cpfv_close",
    "all_pairs_ranking",
    "perfbench_gen",
    "point_values",
    "problems",
    "bits",
    "experts_of",
    "reference_fuse",
    "reference_normalize",
    "reference_cell",
    "reference_columns",
    "parsed_columns",
    "columns_or_error",
    "reference_solve_tables",
    "reference_round_half_up",
    "reference_format_fixed",
    "reference_multiply",
    "reference_power",
    "reference_multiply_minmax",
    "reference_multiply_general",
    "reference_add",
    "reference_scalar_multiple",
    "reference_cpwg",
    "reference_intersect",
]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_pfv(rng: random.Random, boundary_prob: float = 0.05) -> PFV:
    """Random valid point value; occasionally a boundary case."""
    roll = rng.random()
    if roll < boundary_prob / 2:
        mu = rng.random()
        return PFV(mu, math.sqrt(1.0 - mu * mu))
    if roll < boundary_prob:
        return rng.choice(
            [PFV(0.0, 0.0), PFV(1.0, 0.0), PFV(0.0, 1.0), PFV(rng.random(), 0.0), PFV(0.0, rng.random())]
        )
    mu = rng.random()
    nu = rng.random() * math.sqrt(1.0 - mu * mu)
    return PFV(mu, nu)


def sample_cpfv(rng: random.Random, boundary_prob: float = 0.05) -> CPFV:
    """Random valid circular value; occasionally a boundary radius."""
    center = sample_pfv(rng, boundary_prob)
    roll = rng.random()
    if roll < boundary_prob / 2:
        r = 0.0
    elif roll < boundary_prob:
        r = 1.0
    else:
        r = rng.random()
    return CPFV(center.mu, center.nu, r)


def grow(rng: random.Random, a: CPFV) -> CPFV:
    """A random value containing ``a``: mu grows, nu shrinks, r grows."""
    nu = a.nu * rng.random()
    mu_max = math.sqrt(max(0.0, 1.0 - nu * nu))
    mu = a.mu + (mu_max - a.mu) * rng.random()
    r = a.r + (1.0 - a.r) * rng.random()
    return CPFV(min(mu, mu_max), nu, r)


def assert_cpfv_close(a: CPFV, b: CPFV, tol: float = 1e-12) -> None:
    assert abs(a.mu - b.mu) <= tol, f"mu: {a.mu} vs {b.mu}"
    assert abs(a.nu - b.nu) <= tol, f"nu: {a.nu} vs {b.nu}"
    assert abs(a.r - b.r) <= tol, f"r: {a.r} vs {b.r}"


def all_pairs_ranking(labels, scores) -> list[tuple[str, float, bool]]:
    """``(label, score, tied)`` best-first, ties found by comparing all pairs.

    The O(n**2) rule ``Ranking.from_scores`` applied before it counted
    scores; kept as the reference its tie flags must equal.
    """
    n = len(labels)
    order = sorted(range(n), key=lambda i: -scores[i])
    tied = [any(i != j and scores[i] == scores[j] for j in range(n)) for i in range(n)]
    return [(labels[i], scores[i], tied[i]) for i in order]


def perfbench_gen(monkeypatch):
    """The benchmark's seeded problem generator, ``perfbench/gen.py``, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    return gen


# Few distinct values, so cells repeat; both zeros, the axes' ends, a point
# on the unit circle and the smallest subnormal.
COMPONENTS = [0.0, -0.0, 0.25, 0.5, 0.6, 0.8, 1.0, 5e-324]
_component = st.one_of(st.sampled_from(COMPONENTS), st.floats(0.0, 1.0))
point_values = (
    st.tuples(_component, _component)
    .filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0)
    .map(lambda p: PFV(*p))
)


@st.composite
def problems(draw, max_experts: int = 3):
    """Small problems: one to ``max_experts`` experts, mixed polarity, repeated cells."""
    k, n, m = draw(st.integers(1, max_experts)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(point_values, min_size=m, max_size=m).map(tuple)
    matrix = st.lists(row, min_size=n, max_size=n).map(tuple)
    return DecisionProblem(
        alternatives=tuple(f"A{i}" for i in range(n)),
        criteria=tuple(f"C{j}" for j in range(m)),
        polarity=tuple(draw(st.lists(st.sampled_from(["benefit", "cost"]), min_size=m, max_size=m))),
        weights=WeightVector.uniform(m),
        experts=tuple(draw(st.lists(matrix, min_size=k, max_size=k))),
    )


def experts_of(problem) -> tuple[tuple[tuple[PFV, ...], ...], ...]:
    """A problem's cells as nested point values, ``experts_of(problem)[e][i][j]``,
    built from its ``mu`` and ``nu`` columns."""
    n, k = len(problem.alternatives), len(problem.criteria)
    cells = list(map(PFV, problem.mu, problem.nu))
    rows = [tuple(cells[c : c + k]) for c in range(0, len(cells), k)]
    return tuple(tuple(rows[r : r + n]) for r in range(0, len(rows), n))


def bits(problem) -> list[tuple[str, str]]:
    """``float.hex`` of both components of every cell, so the sign of ``-0.0`` counts."""
    return [
        (c.mu.hex(), c.nu.hex()) for matrix in experts_of(problem) for row in matrix for c in row
    ]


def reference_fuse(points) -> CPFV:
    """The fused value of a non-empty collection of point values, one cell at a time.

    The per-cell formula ``fusion`` used before its column kernel; kept as
    the reference the kernel must equal bit for bit.
    """
    mus, nus = [p.mu for p in points], [p.nu for p in points]
    k = len(mus)
    mu = math.sqrt(math.fsum(map(mul, mus, mus)) / k)
    nu = math.sqrt(math.fsum(map(mul, nus, nus)) / k)
    r = max(map(math.hypot, [mu - x for x in mus], [nu - y for y in nus]))
    return CPFV(mu, nu, min(r, 1.0))


def reference_normalize(problem):
    """``normalize`` cell by cell: ``cell.complement()`` of every cost cell of
    ``experts_of(problem)``.  ``normalize`` swaps whole columns; kept as the
    reference its values must equal bit for bit.
    """
    is_cost = [p == "cost" for p in problem.polarity]
    experts = tuple(
        tuple(
            tuple(cell.complement() if is_cost[j] else cell for j, cell in enumerate(row))
            for row in matrix
        )
        for matrix in experts_of(problem)
    )
    return DecisionProblem(problem.alternatives, problem.criteria, problem.polarity, problem.weights, experts)


def reference_cell(node, where: str) -> PFV:
    """The point value of a problem cell, with every check on every cell.

    Every check ``parse_problem`` and ``parse_collections`` make on a cell;
    kept as the reference their results and errors must equal.
    """
    if not isinstance(node, list):
        raise ParseError(f"expected a list, got {type(node).__name__}", location=where)
    if len(node) != 2:
        raise ParseError(f"expected a [mu, nu] pair, got {len(node)} items", location=where)
    for k, x in enumerate(node):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ParseError(f"expected a number, got {_shown(x)}", location=f"{where}[{k}]")
    try:
        return PFV(float(node[0]), float(node[1]))
    except (CircularFuzzyError, OverflowError) as err:  # OverflowError: an integer beyond the float range
        raise ParseError(str(err), location=where) from err


def reference_columns(experts, n: int, k: int) -> tuple[list[float], list[float]]:
    """The ``mu`` and ``nu`` columns of a problem document's ``experts`` node for
    ``n`` alternatives and ``k`` criteria, every node checked in document order.

    The loop ``parse_problem`` ran on every document before its whole-matrix
    pass; kept as the reference its columns and located errors must equal.
    """
    def as_list(node, where, count=None, per=""):
        if not isinstance(node, list):
            raise ParseError(f"expected a list, got {type(node).__name__}", location=where)
        if count is not None and len(node) != count:
            raise ParseError(f"expected {count} items, one per {per}, got {len(node)}", location=where)
        return node

    mu, nu = [], []
    for e, matrix in enumerate(as_list(experts, "experts")):
        for i, row in enumerate(as_list(matrix, f"experts[{e}]", n, "alternative")):
            for j, cell in enumerate(as_list(row, f"experts[{e}][{i}]", k, "criterion")):
                point = reference_cell(cell, f"experts[{e}][{i}][{j}]")
                mu.append(point.mu)
                nu.append(point.nu)
    return mu, nu


def parsed_columns(document):
    """The ``mu`` and ``nu`` columns of the problem ``parse_problem`` makes of ``document``."""
    problem = parse_problem(document)
    return problem.mu, problem.nu


def columns_or_error(parse):
    """``float.hex`` of every component ``parse()`` gives, so the sign of ``-0.0``
    counts, or the message and location of its error."""
    try:
        mu, nu = parse()
    except ParseError as err:
        return err.args[0], err.location
    return list(map(float.hex, mu)), list(map(float.hex, nu))


def _reference_quantized(x, digits: int) -> Decimal:
    if type(x) is not float or not math.isfinite(x):
        x = _real(x, "x", DomainError)
    quantum = Decimal(1).scaleb(-require_precision(digits))
    try:
        return Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP)
    except InvalidOperation:
        raise DomainError(f"cannot round {x!r} to {digits} decimals in 28 digits") from None


# ``round_half_up`` and ``format_fixed`` as they were before their fast path
# for floats in [-1, 1]: every value through ``Decimal(repr(x))``.  Kept as
# the references their results must equal.


def reference_round_half_up(x, digits: int = 2) -> float:
    return float(_reference_quantized(x, digits))


def reference_format_fixed(x, digits: int = 2) -> str:
    return format(_reference_quantized(x, digits), "f")


def _reference_csv(path: Path, header, rows) -> None:
    """Each row through ``csv.writer``, ended by ``\n``.  The writer's line
    terminator is ``\r\n`` so that it quotes a field holding either break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in [header, *rows]:
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
        buf.seek(0)
        buf.truncate()
    path.write_text("".join(lines), encoding="utf-8")


def reference_solve_tables(result, out: Path, precision: int = 2) -> None:
    """The files ``write_solve_tables`` writes, with ``format_fixed`` called on every cell.

    The table writer before it formatted each distinct value once; kept as
    the reference its bytes must equal.
    """
    out.mkdir(parents=True, exist_ok=True)
    fmt = lambda x: format_fixed(x, precision)  # noqa: E731
    alts, crits = result.problem.alternatives, result.problem.criteria
    circular = result.circular_matrix
    _reference_csv(
        out / "normalized_matrix.csv",
        ["expert", "alternative", "criterion", "mu", "nu"],
        [
            (e + 1, alts[i], crits[j], fmt(cell.mu), fmt(cell.nu))
            for e, matrix in enumerate(experts_of(result.normalized))
            for i, row in enumerate(matrix)
            for j, cell in enumerate(row)
        ],
    )
    _reference_csv(
        out / "fused_centers.csv",
        ["alternative", "criterion", "mu", "nu"],
        [(alts[i], crits[j], fmt(v.mu), fmt(v.nu)) for i, row in enumerate(circular) for j, v in enumerate(row)],
    )
    _reference_csv(
        out / "fused_radii.csv",
        ["alternative", "criterion", "r"],
        [(alts[i], crits[j], fmt(v.r)) for i, row in enumerate(circular) for j, v in enumerate(row)],
    )
    _reference_csv(
        out / "circular_matrix.csv",
        ["alternative", "criterion", "mu", "nu", "r"],
        [
            (alts[i], crits[j], fmt(v.mu), fmt(v.nu), fmt(v.r))
            for i, row in enumerate(circular)
            for j, v in enumerate(row)
        ],
    )
    _reference_csv(
        out / "aggregated.csv",
        ["alternative", "mu", "nu", "r"],
        [(alts[i], fmt(v.mu), fmt(v.nu), fmt(v.r)) for i, v in enumerate(result.aggregated)],
    )
    _reference_csv(
        out / "similarities.csv",
        ["alternative", "score"],
        [(alts[i], format_fixed(s, 3)) for i, s in enumerate(result.similarities)],
    )
    _reference_csv(
        out / "ranking.csv",
        ["rank", "alternative", "score", "tied"],
        [
            (pos + 1, entry.label, format_fixed(entry.score, 3), int(entry.tied))
            for pos, entry in enumerate(result.ranking.entries)
        ],
    )
    doc = json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"
    (out / "result.json").write_text(doc, encoding="utf-8")


# The product-side operations as they were written out before they were
# derived from their sum-side duals through the complement; kept as the
# references the derived forms must equal bit for bit.  ``_sum`` and ``_scaled``
# write the generator formula out, so no reference shares it with the package.


def _sum(gen, x, y) -> float:
    return gen.inverse(gen.forward(x) + gen.forward(y))


def _scaled(gen, lam, x) -> float:
    return gen.inverse(lam * gen.forward(x))


def reference_multiply(a, b, gens) -> CPFV:
    return CPFV(
        _sum(gens.g, a.mu, b.mu),
        _sum(gens.h, a.nu, b.nu),
        _sum(gens.q, a.r, b.r),
    )


def reference_power(a, lam, gens) -> CPFV:
    lam = _require_positive(lam)
    return CPFV(
        _scaled(gens.g, lam, a.mu),
        _scaled(gens.h, lam, a.nu),
        _scaled(gens.q, lam, a.r),
    )


def reference_multiply_minmax(a, b, radius_mode="min") -> CPFV:
    if radius_mode not in ("min", "max"):
        raise ValueError(f"radius_mode must be 'min' or 'max', got {radius_mode!r}")
    r = min(a.r, b.r) if radius_mode == "min" else max(a.r, b.r)
    xx, yy = a.nu * a.nu, b.nu * b.nu
    return CPFV(a.mu * b.mu, math.sqrt(max(0.0, xx + yy - xx * yy)), r)


def reference_multiply_general(a, b, tnorm, radius_op) -> CPFV:
    tconorm = dual_tconorm(tnorm)
    return CPFV(
        tnorm(a.mu, b.mu),
        tconorm(a.nu, b.nu),
        radius_op(a.r, b.r),
    )


# ``add`` and ``scalar_multiple`` as they were written out before they called
# the aggregation kernel; kept as the references the kernel must equal bit for bit.


def reference_add(a, b, gens) -> CPFV:
    return CPFV(
        _sum(gens.h, a.mu, b.mu),
        _sum(gens.g, a.nu, b.nu),
        _sum(gens.q, a.r, b.r),
    )


def reference_scalar_multiple(lam, a, gens) -> CPFV:
    lam = _require_positive(lam)
    return CPFV(
        _scaled(gens.h, lam, a.mu),
        _scaled(gens.g, lam, a.nu),
        _scaled(gens.q, lam, a.r),
    )


def reference_cpwg(values, w, gens=None) -> CPFV:
    values, ws = _checked(values, w)
    gens = gens if gens is not None else algebraic_pair()
    return CPFV(
        _weighted(gens.g, [v.mu for v in values], ws),
        _weighted(gens.h, [v.nu for v in values], ws),
        _weighted(gens.q, [v.r for v in values], ws),
    )


def reference_intersect(a, b, radius_mode="min") -> CPFS:
    def pick(x, y):
        if radius_mode == "min":
            return min(x, y)
        if radius_mode == "max":
            return max(x, y)
        raise ValueError(f"radius_mode must be 'min' or 'max', got {radius_mode!r}")

    return CPFS(
        tuple(
            (label, CPFV(min(x.mu, y.mu), max(x.nu, y.nu), pick(x.r, y.r)))
            for label, x, y in _paired(a, b)
        )
    )
