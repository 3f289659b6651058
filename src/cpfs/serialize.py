"""Reading problems and writing result tables.

Problem document (JSON)::

    {
      "alternatives": ["A1", ...],
      "criteria":     ["C1", ...],
      "polarity":     ["cost", "benefit", ...],
      "weights":      [0.2, 0.4, ...],
      "experts":      [ [ [[mu, nu], ...], ... ], ... ]   # expert -> alt -> crit
    }

Collections document (JSON), for fusing point values; ``label`` is optional
and no other key is allowed::

    {"elements": [{"label": "x1", "values": [[mu, nu], ...]}, ...]}

Config document (JSON) for ``cpfs solve``; every key is optional and no
other key is allowed::

    {"operator": "cpwa_q", "precision": 2, "aggregate_precision": 2}

A problem's cells are checked one expert matrix at a time in whole-matrix
passes, and a matrix they do not take is read cell by cell.  Problem text is
decoded one matrix at a time where :func:`_read_problem` takes it, each matrix
the passes take held as its columns and any other as decoded.
Each parser pauses the cyclic garbage collector, process-wide, until it returns.

Errors carry their document path as ``location`` (e.g. ``experts[1][2][0]``)
and the document's name as ``source``.  All CSV output is deterministic: fixed
column order, fixed half-up decimal formatting, ``\n`` line endings.  Each
matrix table is written by ``%``-formatting a template of its lines, one per
expert matrix for the normalized matrix, with each ``%`` of a label doubled.
"""

from __future__ import annotations

import gc
import json
from array import array
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .aggregation import _operator_name
from .errors import CircularFuzzyError, ParseError
from .mcdm import DecisionProblem, PipelineResult
from .rounding import _format_column, format_fixed, require_precision
from .values import PFV, _label, _points_pass, _require_point, _shown

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


@contextmanager
def _decoded(document: str | dict, source: str | None, loads: Callable[[str], Any] = json.loads) -> Iterator[Any]:
    """``document``, decoded by ``loads`` if it is JSON text, for a ``with`` block that reads
    it: a :class:`ParseError` raised in decoding or in the block names ``source``.  The cyclic
    garbage collector is paused from before decoding until the block ends, since the decoded
    tree holds no cycles; a caller that disabled the collector keeps it so."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = loads(document) if isinstance(document, str) else document
        # A JSONDecodeError, an integer over the digit limit, or nesting past the recursion limit.
        except (ValueError, RecursionError) as e:
            raise ParseError(f"invalid JSON: {e}") from e
        yield data
    except ParseError as err:
        err.source = source
        raise
    finally:
        if enabled:
            gc.enable()


def _load(parse: Callable[[str, str], Any], path: str | Path) -> Any:
    """``parse`` of the UTF-8 text of the file at ``path``, named as its source."""
    source = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not valid UTF-8 text: {e.reason} at byte {e.start}", source=source) from None
    return parse(text, source)


def _located(where: str | None, check: Callable[..., Any], *args: Any) -> Any:
    """``check(*args)``, with an error of this package made a :class:`ParseError` at
    ``where``, or at the error's own location if ``where`` is ``None``."""
    try:
        return check(*args)
    except CircularFuzzyError as err:
        raise ParseError(Exception.__str__(err), location=where or err.location) from err


def _as_list(node: Any, where: str, count: int | None = None, per: str = "") -> list:
    """``node`` as a list, of ``count`` items, one per ``per``, if ``count`` is given."""
    if not isinstance(node, list):
        raise ParseError(f"expected a list, got {type(node).__name__}", location=where)
    if count is not None and len(node) != count:
        raise ParseError(f"expected {count} items, one per {per}, got {len(node)}", location=where)
    return node


def _known_keys(data: dict, keys: tuple[str, ...], where: str = "") -> None:
    """A :class:`ParseError` at the first key of ``data`` not in ``keys``, located
    as ``where`` followed by the key."""
    for key in data:
        if key not in keys:
            raise ParseError(f"unknown key; expected one of {', '.join(keys)}", location=f"{where}{key}")


def _as_label(node: Any, where: str) -> str:
    """``node`` as a label: a JSON string that :func:`~cpfs.values._label` accepts."""
    if not isinstance(node, str):
        raise ParseError(f"expected a string, got {type(node).__name__}", location=where)
    return _located(where, _label, node)


def _as_pair(node: Any, where: str) -> tuple[float, float]:
    """The floats ``mu, nu`` of a ``[mu, nu]`` cell of a point value at ``where``."""
    items = _as_list(node, where)
    if len(items) != 2:
        raise ParseError(f"expected a [mu, nu] pair, got {len(items)} items", location=where)
    for k, x in enumerate(items):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ParseError(f"expected a number, got {_shown(x)}", location=f"{where}[{k}]")
    try:
        pair = float(items[0]), float(items[1])
    except OverflowError as err:  # an integer beyond the float range
        raise ParseError(str(err), location=where) from err
    _located(where, _require_point, *pair)
    return pair


class _Columns(tuple):
    """The ``mu`` and ``nu`` components of one expert matrix, as two ``array('d')``, from :func:`_columns`."""


def _columns(matrix: Any, n: int, k: int) -> _Columns | None:
    """The ``mu`` and ``nu`` components of an expert matrix that is a list of ``n`` rows of
    ``k`` ``[mu, nu]`` lists of floats passing the point rule, by whole-matrix passes; else ``None``."""
    if type(matrix) is not list or {*map(type, matrix)} != {list} or list(map(len, matrix)) != [k] * n:
        return None
    cells = list(chain.from_iterable(matrix))
    if {*map(type, cells)} != {list} or {*map(len, cells)} != {2}:
        return None
    components = list(chain.from_iterable(cells))
    xs, ys = components[0::2], components[1::2]
    ok = {*map(type, components)} == {float} and _points_pass(xs, ys)
    return _Columns((array("d", xs), array("d", ys))) if ok else None


#: What ``json.loads`` skips between tokens, and its C scanner of one value.
_skip = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once


def _token(text: str, i: int) -> tuple[str, int]:
    """The first character after the whitespace at ``text[i]``, and the index after it and the
    whitespace that follows; an ``IndexError`` at the end of ``text``."""
    j = _skip(text, i).end()
    return text[j], _skip(text, j + 1).end()


def _read_problem(text: str) -> Any:
    """``json.loads(text)``, but with ``experts`` read by :func:`_read_experts`, one matrix decoded
    at a time, if ``text`` is an object with unique keys, ``alternatives`` and ``criteria`` come
    before ``experts``, and only whitespace follows the object."""
    data: dict = {}
    try:
        token, i = _token(text, 0)
        while token == ("," if data else "{") and text[i] == '"':
            key, i = json.decoder.scanstring(text, i + 1)
            token, i = _token(text, i)
            if key in data or token != ":":
                break
            data[key], i = (_read_experts(text, i, len(data["alternatives"]), len(data["criteria"]))
                            if key == "experts" else _scan(text, i))
            token, i = _token(text, i)
        if token == "}" and i == len(text):
            return data
    # Text json.loads rejects, or experts before a count.
    except (ValueError, StopIteration, IndexError, RecursionError, KeyError, TypeError):
        pass
    return json.loads(text)


def _read_experts(text: str, i: int, n: int, k: int) -> tuple[list, int]:
    """The non-empty list of expert matrices at ``text[i]`` and the index after it, each matrix
    decoded in turn and held as its :class:`_Columns` where :func:`_columns` takes it, else as decoded."""
    experts: list = []
    token, i = _token(text, i)
    while token == ("," if experts else "["):
        matrix, i = _scan(text, i)
        experts.append(_columns(matrix, n, k) or matrix)
        del matrix  # dropped before the next matrix is decoded
        token, i = _token(text, i)
    if not experts or token != "]":
        raise ValueError("expected a non-empty list")
    return experts, i


def parse_problem(document: str | dict, source: str | None = None) -> DecisionProblem:
    """Parse and validate a problem document (JSON text or an already-loaded dict).
    The cyclic garbage collector is paused, process-wide, until it returns."""
    with _decoded(document, source, _read_problem) as data:
        if not isinstance(data, dict):
            raise ParseError("top level must be an object")

        for field in ("alternatives", "criteria", "polarity", "weights", "experts"):
            if field not in data:
                raise ParseError("missing required field", location=field)

        alternatives, criteria = (
            [_as_label(x, f"{key}[{i}]") for i, x in enumerate(_as_list(data[key], key))]
            for key in ("alternatives", "criteria")
        )

        polarity = _as_list(data["polarity"], "polarity")
        weights = _as_list(data["weights"], "weights")

        # Each matrix's columns, read by _read_problem (a _Columns, which no dict document holds), by the
        # whole-matrix pass or else cell by cell, are joined once per side (see DecisionProblem).
        n, k = len(alternatives), len(criteria)
        mu, nu = [], []
        for e, matrix in enumerate(_as_list(data["experts"], "experts")):
            columns = matrix if type(matrix) is _Columns else _columns(matrix, n, k)
            if not columns:
                cells = [_as_pair(cell, f"experts[{e}][{i}][{j}]")
                         for i, row in enumerate(_as_list(matrix, f"experts[{e}]", n, "alternative"))
                         for j, cell in enumerate(_as_list(row, f"experts[{e}][{i}]", k, "criterion"))]
                columns = array("d", [x for x, _ in cells]), array("d", [y for _, y in cells])
            mu.append(columns[0])
            nu.append(columns[1])

        # The problem's own checks cover labels, polarity and weights; their errors
        # carry the offending item as their location (``polarity[j]``, ``weights``).
        return _located(None, DecisionProblem._of_columns, alternatives, criteria, polarity, weights,
                        b"".join(mu), b"".join(nu))


def load_problem(path: str | Path) -> DecisionProblem:
    return _load(parse_problem, path)


def problem_to_dict(problem: DecisionProblem) -> dict:
    """Inverse of :func:`parse_problem`; round-trips exactly."""
    _, n, k = problem.shape
    cells = [[mu, nu] for mu, nu in zip(problem.mu, problem.nu)]
    rows = [cells[c : c + k] for c in range(0, len(cells), k)]
    return {
        "alternatives": list(problem.alternatives),
        "criteria": list(problem.criteria),
        "polarity": list(problem.polarity),
        "weights": list(problem.weights),
        "experts": [rows[r : r + n] for r in range(0, len(rows), n)],
    }


def dump_problem(problem: DecisionProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2, sort_keys=True) + "\n"


def parse_collections(document: str | dict, source: str | None = None) -> list[tuple[str, list[PFV]]]:
    """Parse a collections document into ``(label, point values)`` rows.
    The cyclic garbage collector is paused, process-wide, until it returns."""
    with _decoded(document, source) as data:
        if not isinstance(data, dict) or "elements" not in data:
            raise ParseError("top level must be an object with an 'elements' field")
        _known_keys(data, ("elements",))

        out: list[tuple[str, list[PFV]]] = []
        for i, element in enumerate(_as_list(data["elements"], "elements")):
            where = f"elements[{i}]"
            if not isinstance(element, dict) or "values" not in element:
                raise ParseError("expected an object with a 'values' field", location=where)
            _known_keys(element, ("label", "values"), f"{where}.")
            label = _as_label(element.get("label", f"x{i + 1}"), f"{where}.label")
            values = _as_list(element["values"], f"{where}.values")
            columns = _columns([values], 1, len(values))  # a list of one row
            values = (list(map(PFV, *columns)) if columns else
                      [PFV(*_as_pair(cell, f"{where}.values[{j}]")) for j, cell in enumerate(values)])
            if not values:
                raise ParseError("collection must be non-empty", location=f"{where}.values")
            out.append((label, values))
        return out


def load_collections(path: str | Path) -> list[tuple[str, list[PFV]]]:
    return _load(parse_collections, path)


#: Each config key, in the order checked, with the library's check of its value.
_CONFIG_CHECKS = {"operator": _operator_name, "precision": require_precision,
                  "aggregate_precision": require_precision}


def parse_config(document: str | dict, source: str | None = None) -> dict:
    """Parse and validate a ``solve`` config document.

    ``operator`` must be one of :data:`~cpfs.aggregation.OPERATOR_NAMES` or
    ``q``/``p``, ``precision`` an integer from 0 to
    :data:`~cpfs.rounding.MAX_PRECISION` and ``aggregate_precision`` such an
    integer or ``null``.  Returns the keys the document sets, with their values
    as given (``"q"`` stays ``"q"``); any other key is an error.  The cyclic
    garbage collector is paused, process-wide, until it returns.
    """
    with _decoded(document, source) as data:
        if not isinstance(data, dict):
            raise ParseError("top level must be an object")
        _known_keys(data, tuple(_CONFIG_CHECKS))
        for key, check in _CONFIG_CHECKS.items():
            if key in data and (data[key] is not None or key != "aggregate_precision"):
                _located(key, check, data[key])
        return {key: data[key] for key in _CONFIG_CHECKS if key in data}


def load_config(path: str | Path) -> dict:
    return _load(parse_config, path)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


class _Formatted(dict):
    """``format_fixed`` at fixed ``digits``, computed once per distinct value."""

    def __init__(self, digits: int) -> None:
        self.digits = digits

    def __missing__(self, x: float) -> str:
        s = format_fixed(x, self.digits)
        # 0.0 == -0.0 and both hash alike: zero is never stored, so its sign survives.
        if x:
            self[x] = s
        return s


def _quoted(label: str) -> str:
    """``label`` as one CSV field (RFC 4180): in double quotes, each inner quote
    doubled, if it holds a comma, a double quote or a line break; else as it is."""
    if "," in label or '"' in label or "\n" in label or "\r" in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def _template(starts: list[str], fields: int, lead: str = "") -> str:
    """A ``%``-template of one line per item of ``starts``: ``lead``, the start, then ``fields``
    ``%s`` fields; each ``%`` of the starts must be doubled already."""
    end = ",".join(["%s"] * fields) + "\n"
    return lead + (end + lead).join(starts) + end


def _interleaved(*columns: Iterable[str]) -> tuple[str, ...]:
    """The items of the equally long ``columns`` taken one from each in turn, as a tuple."""
    columns = [list(c) for c in columns]
    fields: list = [None] * sum(map(len, columns))
    for c, column in enumerate(columns):
        fields[c :: len(columns)] = column
    return tuple(fields)


def write_solve_tables(result: PipelineResult, out_dir: str | Path, precision: int = 2) -> dict[str, Path]:
    """Write every pipeline table as CSV plus a JSON result document.

    Returns a name -> path map of everything written.  A precision outside
    0 to :data:`~cpfs.rounding.MAX_PRECISION` raises before any file is written.
    """
    digits = require_precision(precision)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = result.problem
    # Each label is quoted once; formatted numbers never need quoting.
    alts, crits = ([_quoted(x) for x in labels] for labels in (problem.alternatives, problem.criteria))
    quoted = dict(zip(problem.alternatives, alts))

    files: dict[str, Path] = {}

    def emit(name: str, header: str, lines: Iterable[str]) -> None:
        path = out / f"{name}.csv"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)
        files[name] = path

    # Each matrix table is one template per expert matrix, or one in all, whose lines start with an
    # (alternative, criterion) pair, each % of a label doubled.  The input cells repeat, so each
    # distinct value is formatted once; the fused values are nearly all distinct, so each of their
    # columns, like every column of the short tables, is formatted in one pass.
    starts = [f"{alt},{crit},".replace("%", "%%") for alt in alts for crit in crits]
    get = _Formatted(digits).__getitem__
    mu, nu, cells = result.normalized.mu, result.normalized.nu, len(starts)
    emit("normalized_matrix", "expert,alternative,criterion,mu,nu", (
        _template(starts, 2, f"{e},") % _interleaved(map(get, mu[c : c + cells]), map(get, nu[c : c + cells]))
        for e, c in enumerate(range(0, len(mu), cells), 1)
    ))
    rows = result.circular_matrix
    fused = [_format_column([x for row in rows for x in getattr(row, c)], digits) for c in ("mu", "nu", "r")]
    emit("fused_centers", "alternative,criterion,mu,nu", [_template(starts, 2) % _interleaved(*fused[:2])])
    emit("fused_radii", "alternative,criterion,r", [_template(starts, 1) % tuple(fused[2])])
    emit("circular_matrix", "alternative,criterion,mu,nu,r", [_template(starts, 3) % _interleaved(*fused)])
    aggregated = (_format_column(c, digits) for c in zip(*(v.as_tuple() for v in result.aggregated)))
    emit("aggregated", "alternative,mu,nu,r", map("{},{},{},{}\n".format, alts, *aggregated))
    emit("similarities", "alternative,score", map("{},{}\n".format, alts, _format_column(result.similarities, 3)))
    ranking = result.ranking
    emit("ranking", "rank,alternative,score,tied", (
        f"{pos},{quoted[entry.label]},{score},{int(entry.tied)}\n"
        for pos, (entry, score) in enumerate(zip(ranking.entries, _format_column(ranking.scores(), 3)), 1)
    ))

    path = out / "result.json"
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_result_json(result_to_dict(result)))
    files["result"] = path
    return files


# ---------------------------------------------------------------------------
# result.json: each list of numbers laid out as ``json.dumps(..., indent=2)`` does.
# ---------------------------------------------------------------------------

#: The lists of floats or of ``[mu, nu, r]`` triples in a result document.
_NUMBER_LISTS = {"aggregated", "circular_matrix", "scored", "similarities", "weights"}


def _indented(numbers: list, level: int) -> str:
    """``json.dumps(numbers, indent=2)`` indented ``level`` steps, for a list of
    floats or of ``[mu, nu, r]`` triples of plain floats.  ``json`` writes a
    float as ``float.__repr__`` does."""
    if not numbers:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    if type(numbers[0]) is list:
        inner = pad + "  "
        template = f"[{inner}%r,{inner}%r,{inner}%r{pad}]"
        items = [template % (mu, nu, r) for mu, nu, r in numbers]
    else:
        items = map(float.__repr__, numbers)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _result_json(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` in chunks."""
    sep = "{\n"
    for key, value in sorted(doc.items()):
        yield f"{sep}  {json.dumps(key)}: "
        if key == "circular_matrix" and value:  # one alternative at a time
            for i, row in enumerate(value):
                yield ("," if i else "[") + "\n    " + _indented(row, 2)
            yield "\n  ]"
        elif key in _NUMBER_LISTS:
            yield _indented(value, 1)
        else:
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        sep = ",\n"
    yield "\n}\n"


def result_to_dict(result: PipelineResult) -> dict:
    """Full-precision machine-readable result document."""
    problem = result.problem
    return {
        "operator": result.operator,
        "alternatives": list(problem.alternatives),
        "criteria": list(problem.criteria),
        "weights": list(problem.weights),
        "circular_matrix": [
            list(map(list, zip(row.mu, row.nu, row.r))) for row in result.circular_matrix
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
