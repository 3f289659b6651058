"""Reading problems and writing result tables.

Problem document (JSON)::

    {
      "alternatives": ["A1", ...],
      "criteria":     ["C1", ...],
      "polarity":     ["cost", "benefit", ...],
      "weights":      [0.2, 0.4, ...],
      "experts":      [ [ [[mu, nu], ...], ... ], ... ]   # expert -> alt -> crit
    }

Collections document (JSON), for fusing point values::

    {"elements": [{"label": "x1", "values": [[mu, nu], ...]}, ...]}

Config document (JSON) for ``cpfs solve``; every key is optional::

    {"operator": "cpwa_q", "precision": 2, "aggregate_precision": 2}

Errors carry the offending document path (e.g. ``experts[1][2][0]``), and
all CSV output is deterministic: fixed column order, fixed half-up decimal
formatting, ``\n`` line endings.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Sequence

from .errors import CircularFuzzyError, ParseError
from .mcdm import DecisionProblem, PipelineResult
from .rounding import format_fixed
from .values import PFV
from .aggregation import WeightVector

__all__ = [
    "parse_problem",
    "load_problem",
    "problem_to_dict",
    "dump_problem",
    "parse_collections",
    "load_collections",
    "parse_config",
    "load_config",
    "write_solve_tables",
    "result_to_dict",
]


def _decode(document: str | dict, source: str | None) -> Any:
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", source=source) from e


def _as_list(node: Any, where: str, source: str | None) -> list:
    if not isinstance(node, list):
        raise ParseError(f"expected a list, got {type(node).__name__}", location=where, source=source)
    return node


def _as_pair(node: Any, where: str, source: str | None) -> tuple[float, float]:
    pair = _as_list(node, where, source)
    if len(pair) != 2:
        raise ParseError(f"expected a [mu, nu] pair, got {len(pair)} items", location=where, source=source)
    for k, x in enumerate(pair):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ParseError(f"expected a number, got {x!r}", location=f"{where}[{k}]", source=source)
    return float(pair[0]), float(pair[1])


def parse_problem(document: str | dict, source: str | None = None) -> DecisionProblem:
    """Parse and validate a problem document (JSON text or an already-loaded dict)."""
    data = _decode(document, source)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", source=source)

    for field in ("alternatives", "criteria", "polarity", "weights", "experts"):
        if field not in data:
            raise ParseError("missing required field", location=field, source=source)

    alternatives = [str(x) for x in _as_list(data["alternatives"], "alternatives", source)]
    criteria = [str(x) for x in _as_list(data["criteria"], "criteria", source)]

    polarity = []
    for j, p in enumerate(_as_list(data["polarity"], "polarity", source)):
        if p not in ("benefit", "cost"):
            raise ParseError(
                f"must be 'benefit' or 'cost', got {p!r}", location=f"polarity[{j}]", source=source
            )
        polarity.append(p)

    raw_weights = _as_list(data["weights"], "weights", source)
    try:
        weights = WeightVector(tuple(float(w) for w in raw_weights))
    except (TypeError, ValueError) as e:
        raise ParseError(str(e), location="weights", source=source) from e

    experts = []
    for e, matrix in enumerate(_as_list(data["experts"], "experts", source)):
        rows = []
        for i, row in enumerate(_as_list(matrix, f"experts[{e}]", source)):
            cells = []
            for j, cell in enumerate(_as_list(row, f"experts[{e}][{i}]", source)):
                where = f"experts[{e}][{i}][{j}]"
                mu, nu = _as_pair(cell, where, source)
                try:
                    cells.append(PFV(mu, nu))
                except CircularFuzzyError as err:
                    raise ParseError(str(err), location=where, source=source) from err
            rows.append(tuple(cells))
        experts.append(tuple(rows))

    try:
        return DecisionProblem(
            alternatives=tuple(alternatives),
            criteria=tuple(criteria),
            polarity=tuple(polarity),
            weights=weights,
            experts=tuple(experts),
        )
    except CircularFuzzyError as err:
        raise ParseError(str(err), source=source) from err


def load_problem(path: str | Path) -> DecisionProblem:
    path = Path(path)
    return parse_problem(path.read_text(encoding="utf-8"), source=str(path))


def problem_to_dict(problem: DecisionProblem) -> dict:
    """Inverse of :func:`parse_problem`; round-trips exactly."""
    return {
        "alternatives": list(problem.alternatives),
        "criteria": list(problem.criteria),
        "polarity": list(problem.polarity),
        "weights": list(problem.weights),
        "experts": [
            [[[cell.mu, cell.nu] for cell in row] for row in matrix]
            for matrix in problem.experts
        ],
    }


def dump_problem(problem: DecisionProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2, sort_keys=True) + "\n"


def parse_collections(
    document: str | dict, source: str | None = None
) -> list[tuple[str, list[PFV]]]:
    """Parse a collections document into ``(label, point values)`` rows."""
    data = _decode(document, source)
    if not isinstance(data, dict) or "elements" not in data:
        raise ParseError("top level must be an object with an 'elements' field", source=source)

    out: list[tuple[str, list[PFV]]] = []
    for i, element in enumerate(_as_list(data["elements"], "elements", source)):
        where = f"elements[{i}]"
        if not isinstance(element, dict) or "values" not in element:
            raise ParseError("expected an object with a 'values' field", location=where, source=source)
        label = str(element.get("label", f"x{i + 1}"))
        values = []
        for j, cell in enumerate(_as_list(element["values"], f"{where}.values", source)):
            mu, nu = _as_pair(cell, f"{where}.values[{j}]", source)
            try:
                values.append(PFV(mu, nu))
            except CircularFuzzyError as err:
                raise ParseError(str(err), location=f"{where}.values[{j}]", source=source) from err
        if not values:
            raise ParseError("collection must be non-empty", location=f"{where}.values", source=source)
        out.append((label, values))
    return out


def load_collections(path: str | Path) -> list[tuple[str, list[PFV]]]:
    path = Path(path)
    return parse_collections(path.read_text(encoding="utf-8"), source=str(path))


def _as_digits(node: Any, where: str, source: str | None) -> int:
    if isinstance(node, bool) or not isinstance(node, int) or node < 0:
        raise ParseError(f"expected a non-negative integer, got {node!r}", location=where, source=source)
    return node


def parse_config(document: str | dict, source: str | None = None) -> dict:
    """Parse and validate a ``solve`` config document.

    ``operator`` must be a string, ``precision`` a non-negative integer and
    ``aggregate_precision`` a non-negative integer or ``null``.  Returns the
    keys the document sets; other keys are ignored.
    """
    data = _decode(document, source)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", source=source)
    config = {}
    if "operator" in data:
        if not isinstance(data["operator"], str):
            raise ParseError(
                f"expected an operator name, got {data['operator']!r}", location="operator", source=source
            )
        config["operator"] = data["operator"]
    if "precision" in data:
        config["precision"] = _as_digits(data["precision"], "precision", source)
    if "aggregate_precision" in data:
        digits = data["aggregate_precision"]
        config["aggregate_precision"] = (
            None if digits is None else _as_digits(digits, "aggregate_precision", source)
        )
    return config


def load_config(path: str | Path) -> dict:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_solve_tables(result: PipelineResult, out_dir: str | Path, precision: int = 2) -> dict[str, Path]:
    """Write every pipeline table as CSV plus a JSON result document.

    Returns a name -> path map of everything written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = lambda x: format_fixed(x, precision)  # noqa: E731
    problem = result.problem
    alts, crits = problem.alternatives, problem.criteria

    files: dict[str, Path] = {}

    def emit(name: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
        path = out / f"{name}.csv"
        path.write_text(_csv_text(header, rows), encoding="utf-8")
        files[name] = path

    emit(
        "normalized_matrix",
        ["expert", "alternative", "criterion", "mu", "nu"],
        [
            (e + 1, alts[i], crits[j], fmt(cell.mu), fmt(cell.nu))
            for e, matrix in enumerate(result.normalized.experts)
            for i, row in enumerate(matrix)
            for j, cell in enumerate(row)
        ],
    )
    emit(
        "fused_centers",
        ["alternative", "criterion", "mu", "nu"],
        [
            (alts[i], crits[j], fmt(v.mu), fmt(v.nu))
            for i, row in enumerate(result.circular_matrix)
            for j, v in enumerate(row)
        ],
    )
    emit(
        "fused_radii",
        ["alternative", "criterion", "r"],
        [
            (alts[i], crits[j], fmt(v.r))
            for i, row in enumerate(result.circular_matrix)
            for j, v in enumerate(row)
        ],
    )
    emit(
        "circular_matrix",
        ["alternative", "criterion", "mu", "nu", "r"],
        [
            (alts[i], crits[j], fmt(v.mu), fmt(v.nu), fmt(v.r))
            for i, row in enumerate(result.circular_matrix)
            for j, v in enumerate(row)
        ],
    )
    emit(
        "aggregated",
        ["alternative", "mu", "nu", "r"],
        [(alts[i], fmt(v.mu), fmt(v.nu), fmt(v.r)) for i, v in enumerate(result.aggregated)],
    )
    emit(
        "similarities",
        ["alternative", "score"],
        [(alts[i], format_fixed(s, 3)) for i, s in enumerate(result.similarities)],
    )
    emit(
        "ranking",
        ["rank", "alternative", "score", "tied"],
        [
            (pos + 1, entry.label, format_fixed(entry.score, 3), int(entry.tied))
            for pos, entry in enumerate(result.ranking.entries)
        ],
    )

    doc = result_to_dict(result)
    path = out / "result.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    files["result"] = path
    return files


def result_to_dict(result: PipelineResult) -> dict:
    """Full-precision machine-readable result document."""
    problem = result.problem
    return {
        "operator": result.operator,
        "alternatives": list(problem.alternatives),
        "criteria": list(problem.criteria),
        "weights": list(problem.weights),
        "circular_matrix": [
            [[v.mu, v.nu, v.r] for v in row] for row in result.circular_matrix
        ],
        "aggregated": [[v.mu, v.nu, v.r] for v in result.aggregated],
        "scored": [[v.mu, v.nu, v.r] for v in result.scored],
        "similarities": list(result.similarities),
        "ranking": [
            {"rank": pos + 1, "alternative": e.label, "score": e.score, "tied": e.tied}
            for pos, e in enumerate(result.ranking.entries)
        ],
        "ranking_ascending": result.ranking.ascending_string(),
        "best_alternative": result.ranking.best,
    }
