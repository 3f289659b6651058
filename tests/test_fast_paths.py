"""The two fast paths of ``cpfs.serialize`` against their references.

``write_solve_tables`` formats each distinct value once and writes the
normalized matrix a line at a time, quoting each label once by the RFC 4180
rule; its files must equal those of a writer that formats every cell and
writes every row through ``csv.writer``, whatever the labels hold, and its
``result.json``, written in chunks with each list of numbers laid out by
plain formatting (a float's repr, or one template per ``[mu, nu, r]``
triple), must equal ``json.dumps(..., indent=2, sort_keys=True)``.  ``parse_problem`` and
``parse_collections`` take pairs of floats without the per-item checks; they
must accept and reject the same documents, with the same values and the same
located errors, as a parser that checks every cell.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import (
    CPFV,
    PFV,
    MAX_PRECISION,
    DecisionProblem,
    ParseError,
    PipelineResult,
    Ranking,
    WeightVector,
    load_case_study,
    solve,
)
from cpfs.fusion import CircularMatrix
from cpfs.serialize import _indented, parse_collections, parse_problem, result_to_dict, write_solve_tables
from cpfs.values import CPFVRow
from helpers import perfbench_gen, reference_cell, reference_solve_tables

# Repeats, both zeros, half-up ties at two and three decimals, and a value
# that is 0 at every precision but not zero.
UNIT_POOL = [0.0, -0.0, 0.5, 0.125, 0.005, 0.0125, 0.045, 1.0, 1e-9, 1 / 3, 0.999999999]
unit = st.one_of(st.sampled_from(UNIT_POOL), st.floats(0.0, 1.0))
pfvs = st.tuples(unit, unit).filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0).map(lambda p: PFV(*p))
# Labels the csv module must quote or keep as they are: delimiters, quotes,
# line breaks, empty text, outer spaces and non-ASCII text.
CSV_SPECIAL = ["a,b", 'say "hi"', '"', "cr\rx", "lf\nx", "\r\n", "", " lead", "trail ", "ünï", "Ω,\"", "A1"]
labels = st.one_of(
    st.sampled_from(CSV_SPECIAL),
    st.text(st.sampled_from(',"\r\n aé\u2028\t'), max_size=4),
    st.text(max_size=3),
)


@st.composite
def results(draw):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    alts = tuple(draw(st.lists(labels, min_size=n, max_size=n, unique=True)))
    crits = tuple(draw(st.lists(labels, min_size=m, max_size=m, unique=True)))

    def problem():
        return DecisionProblem(
            alternatives=alts,
            criteria=crits,
            polarity=("benefit",) * m,
            weights=WeightVector((1.0,) + (0.0,) * (m - 1)),
            experts=draw(st.lists(
                st.lists(st.lists(pfvs, min_size=m, max_size=m).map(tuple), min_size=n, max_size=n)
                .map(tuple),
                min_size=k, max_size=k,
            )),
        )

    cpfvs = st.tuples(pfvs, unit).map(lambda p: CPFV(p[0].mu, p[0].nu, p[1]))
    circular = CircularMatrix(CPFVRow.of(draw(st.lists(cpfvs, min_size=n * m, max_size=n * m))), m)
    aggregated = tuple(draw(st.lists(cpfvs, min_size=n, max_size=n)))
    similarities = tuple(draw(st.lists(unit, min_size=n, max_size=n)))
    return PipelineResult(
        problem=problem(),
        normalized=problem(),
        circular_matrix=circular,
        aggregated=aggregated,
        scored=aggregated,
        similarities=similarities,
        ranking=Ranking.from_scores(alts, similarities),
        operator="cpwa_q",
    )


@settings(max_examples=150, deadline=None)
@given(results(), st.integers(0, MAX_PRECISION))
def test_tables_equal_a_writer_that_formats_every_cell(result, precision):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got"), Path(tmp, "want")
        files = write_solve_tables(result, got, precision=precision)
        reference_solve_tables(result, want, precision=precision)
        assert sorted(p.name for p in files.values()) == sorted(p.name for p in want.iterdir())
        for path in files.values():
            assert path.read_bytes() == (want / path.name).read_bytes(), path.name


def test_negative_zero_keeps_its_sign_after_a_positive_zero(tmp_path):
    a, b = PFV(0.0, 0.5), PFV(-0.0, 0.5)
    problem = DecisionProblem(("A1", "A2"), ("C1",), ("benefit",), WeightVector((1.0,)),
                              (((a,), (b,)),))
    v = CPFV(a.mu, a.nu, 0.0)
    result = PipelineResult(problem, problem, CircularMatrix(CPFVRow.of((v, v)), 1), (v, v), (v, v),
                            (0.5, 0.5), Ranking.from_scores(("A1", "A2"), (0.5, 0.5)), "cpwa_q")
    write_solve_tables(result, tmp_path)
    lines = (tmp_path / "normalized_matrix.csv").read_text().splitlines()
    assert lines[1:] == ["1,A1,C1,0.00,0.50", "1,A2,C1,-0.00,0.50"]


def assert_result_json_is_indented_json(result, out: Path, precision: int) -> None:
    write_solve_tables(result, out, precision=precision)
    want = json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"
    assert (out / "result.json").read_bytes() == want.encode("utf-8")


def test_panel_result_json_is_indented_json(tmp_path, monkeypatch):
    gen = perfbench_gen(monkeypatch)
    doc = gen.generate(gen.Params(experts=10, alternatives=500, criteria=20), 0)
    assert_result_json_is_indented_json(solve(parse_problem(doc)), tmp_path, 2)


@pytest.mark.parametrize("precision", [2, 3])
@pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p"])
def test_case_study_result_json_is_indented_json(operator, precision, tmp_path):
    result = solve(load_case_study(), operator, aggregate_precision=precision)
    assert_result_json_is_indented_json(result, tmp_path, precision)


def laid_out(numbers, depth: int, level: int) -> str:
    """``_indented`` of a list of floats (depth 1) or of triples (depth 2); a
    matrix of triples (depth 3) one row at a time, each a level deeper, as
    ``result.json`` holds the circular matrix."""
    if depth < 3:
        return _indented(numbers, level)
    pad = "\n" + "  " * (level + 1)
    return "[" + ",".join(pad + _indented(row, level + 1) for row in numbers) + pad[:-2] + "]"


@pytest.mark.parametrize("numbers, depth", [
    ([], 1), ([[0.5, 0.25, 0.0]], 2), ([[-0.0, 1e-300, 5e-324], [1.0, 1 / 3, 0.1]], 2),
    ([0.5], 1), ([-0.0, 1e-300, 5e-324, np.float64(0.5), np.float64(1 / 3)], 1),
    ([[0.1, 0.2, 0.3]] * 3, 2), ([[[0.1, 0.2, 0.3], [0.4, -0.0, 1.0]], [[5e-324, 0.0, 0.5]]], 3),
    ([[]], 3),
])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_list_of_numbers_is_indented_as_json_dumps_does(numbers, depth, level):
    want = json.dumps(numbers, indent=2).replace("\n", "\n" + "  " * level)
    assert laid_out(numbers, depth, level) == want


class FloatSub(float):
    pass


# Cells from JSON (ints, bools, both zeros, strings, nested and wrong-length
# lists, pairs outside the unit disc) and from an already-loaded dict.
CELL_POOL = [
    [0.5, 0.5], [1, 0], [0, 1], [1, 0.0], [0.0, 1], [True, 0.5], [0.5, False],
    [-0.0, 0.5], [0.5, -0.0], [-0.0, -0.0], [0.5, 0.5, 0.5], [0.5], [], "0.5",
    0.5, None, {"mu": 0.5}, [[0.5], 0.5], [[0.5, 0.5]], [0.9, 0.9], [1.5, 0.0],
    [-0.5, 0.5], [0.6, 0.8], [math.nan, 0.5], [math.inf, 0.0], ["0.5", 0.5],
    (0.5, 0.5), [np.float64(0.5), 0.5], [FloatSub(0.5), 0.5], [2, 0],
]
cells = st.one_of(
    st.sampled_from(CELL_POOL),
    st.lists(st.one_of(st.floats(), st.integers(-2, 2), st.booleans(), st.text(max_size=2)),
             max_size=3),
)


def outcome(parse, cells):
    """Component reprs and types of every cell, or the error message."""
    try:
        return [(repr(c.mu), type(c.mu), repr(c.nu), type(c.nu)) for c in parse(cells)]
    except ParseError as err:
        return str(err)


def document(cells):
    return {
        "alternatives": ["A1", "A2"],
        "criteria": ["C1", "C2"],
        "polarity": ["benefit", "cost"],
        "weights": [0.5, 0.5],
        "experts": [[cells[0:2], cells[2:4]], [cells[4:6], cells[6:8]]],
    }


def fast(cells):
    problem = parse_problem(document(cells))
    return [cell for matrix in problem.experts for row in matrix for cell in row]


def reference(cells):
    return [
        reference_cell(cells[4 * e + 2 * i + j], f"experts[{e}][{i}][{j}]")
        for e in range(2) for i in range(2) for j in range(2)
    ]


def fast_collections(cells):
    doc = {"elements": [{"label": "x", "values": cells[:3]}, {"values": cells[3:]}]}
    return [v for _, vs in parse_collections(doc) for v in vs]


def reference_collections(cells):
    return [reference_cell(c, f"elements[0].values[{j}]") for j, c in enumerate(cells[:3])] + [
        reference_cell(c, f"elements[1].values[{j}]") for j, c in enumerate(cells[3:])
    ]


@settings(max_examples=300)
@given(st.lists(cells, min_size=8, max_size=8))
@example([[0.5, 0.5]] * 7 + [[1, 0]])
@example([[-0.0, 0.5]] * 8)
@example([[0.5, 0.5]] * 3 + [[True, 0.5]] + [[0.5, 0.5, 0.5]] * 4)
@example([[0.5, 0.5], [0.9, 0.9]] * 4)
@example([[0.25, 0.5], [0.0, 0.5], [-0.0, 0.5], [0.25, 0.5]] * 2)
def test_parse_matches_a_parser_that_checks_every_cell(cells):
    for parse, ref in ((fast, reference), (fast_collections, reference_collections)):
        assert outcome(parse, cells) == outcome(ref, cells)


def test_json_negative_zero_keeps_its_sign():
    doc = json.dumps(document([[0.5, 0.5]] * 7 + [[0.5, -0.0]]))
    assert "-0.0" in doc
    cell = parse_problem(doc).experts[1][1][1]
    assert math.copysign(1.0, cell.nu) == -1.0
