"""The two fast paths of ``cpfs.serialize`` against their references.

``write_solve_tables`` formats each distinct input value once and each fused
or derived column in one pass, quotes each label once by the RFC 4180 rule, and
fills each matrix table from ``%``-templates of its lines, one per expert
matrix for the normalized matrix, each ``%`` of a label doubled; its files must
equal those of a writer that formats every cell and writes every row through
``csv.writer``, whatever the labels hold (``%`` and line breaks too), and its
``result.json``, written in chunks with each list of numbers laid out by
plain formatting (a float's repr, or one template per ``[mu, nu, r]``
triple), must equal ``json.dumps(..., indent=2, sort_keys=True)``.  ``parse_problem``
checks a document's cells one expert matrix at a time in whole-matrix passes,
and reads a document that fails them again cell by cell; it and
``parse_collections`` must accept and reject the same documents, with the same
values and the same located errors, as a parser that checks every node in
document order.  Every parser pauses the cyclic garbage collector while it
runs and leaves it as it found it.
"""

import gc
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
    collections_path,
    load_case_study,
    solve,
)
from cpfs import serialize
from cpfs.serialize import (
    _indented,
    load_collections,
    parse_collections,
    parse_config,
    parse_problem,
    result_to_dict,
    write_solve_tables,
)
from cpfs.values import CPFVRow
from helpers import (
    columns_or_error,
    experts_of,
    parsed_columns,
    perfbench_gen,
    reference_cell,
    reference_columns,
    reference_solve_tables,
)

# Repeats, both zeros, half-up ties at two and three decimals, and a value
# that is 0 at every precision but not zero.
UNIT_POOL = [0.0, -0.0, 0.5, 0.125, 0.005, 0.0125, 0.045, 1.0, 1e-9, 1 / 3, 0.999999999]
unit = st.one_of(st.sampled_from(UNIT_POOL), st.floats(0.0, 1.0))
pfvs = st.tuples(unit, unit).filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0).map(lambda p: PFV(*p))
# Labels the csv module must quote or keep as they are: delimiters, quotes,
# line breaks, empty text, outer spaces and non-ASCII text; and labels a
# %-template must not read as fields.
CSV_SPECIAL = ["a,b", 'say "hi"', '"', "cr\rx", "lf\nx", "\r\n", "", " lead", "trail ", "ünï", "Ω,\"", "A1",
               "%", "%s", "%%", "%(x)s", ",%s,%s", "%\n"]
labels = st.one_of(
    st.sampled_from(CSV_SPECIAL),
    st.text(st.sampled_from(',"\r\n aé\u2028\t'), max_size=4),
    st.text(max_size=3),
)


@st.composite
def results(draw):
    k = draw(st.integers(1, 3))
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
    cells = draw(st.lists(cpfvs, min_size=n * m, max_size=n * m))
    circular = tuple(CPFVRow.of(cells[c : c + m]) for c in range(0, n * m, m))
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
    result = PipelineResult(problem, problem, (CPFVRow.of((v,)), CPFVRow.of((v,))), (v, v), (v, v),
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
# lists, pairs outside the unit disc, integers beyond the float range) and
# from an already-loaded dict.
CELL_POOL = [
    [0.5, 0.5], [1, 0], [0, 1], [1, 0.0], [0.0, 1], [True, 0.5], [0.5, False],
    [-0.0, 0.5], [0.5, -0.0], [-0.0, -0.0], [0.5, 0.5, 0.5], [0.5], [], "0.5",
    0.5, None, {"mu": 0.5}, [[0.5], 0.5], [[0.5, 0.5]], [0.9, 0.9], [1.5, 0.0],
    [-0.5, 0.5], [0.6, 0.8], [math.nan, 0.5], [math.inf, 0.0], ["0.5", 0.5],
    (0.5, 0.5), [np.float64(0.5), 0.5], [FloatSub(0.5), 0.5], [2, 0],
    [10**400, 0], [0.5, -(10**400)],
]
# Small integers, and integers on both sides of the float range's end: from
# 2**1024 - 2**970 on, ``float()`` raises OverflowError.
integers = st.one_of(st.integers(-2, 2), st.integers(2**1023, 2**1025), st.integers(-(2**1025), -(2**1023)))
cells = st.one_of(
    st.sampled_from(CELL_POOL),
    st.lists(st.one_of(st.floats(), integers, st.booleans(), st.text(max_size=2)), max_size=3),
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
    return [cell for matrix in experts_of(problem) for row in matrix for cell in row]


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
@example([[0.7121589030173542, 0.7020183030755814]] * 7 + [[0.7121589030173542, 0.7020183030755816]])
@example([[0.5, 0.5]] * 7 + [[10**400, 0]])
def test_parse_matches_a_parser_that_checks_every_cell(cells):
    for parse, ref in ((fast, reference), (fast_collections, reference_collections)):
        assert outcome(parse, cells) == outcome(ref, cells)


def test_json_negative_zero_keeps_its_sign():
    doc = json.dumps(document([[0.5, 0.5]] * 7 + [[0.5, -0.0]]))
    assert "-0.0" in doc
    cell = experts_of(parse_problem(doc))[1][1][1]
    assert math.copysign(1.0, cell.nu) == -1.0


class ListSub(list):
    pass


# Cells at the edges of the point rule: NaN, the infinities, the smallest
# subnormal, a point on the unit circle, and the pair with the largest nu the
# slack admits next to the same pair with nu one float higher.
SLACK_LIMIT = [0.7121589030173542, 0.7020183030755814]
EDGE_CELLS = [
    [math.nan, 0.5], [0.5, math.nan], [math.inf, 0.0], [0.0, -math.inf], [5e-324, 5e-324],
    [1.0, 5e-324], [-0.0, 1.0], [0.8, 0.6], SLACK_LIMIT, [SLACK_LIMIT[0], math.nextafter(SLACK_LIMIT[1], 1)],
]
float_cells = st.one_of(
    st.sampled_from([[0.5, 0.5], [-0.0, 0.25], [1.0, 0.0], SLACK_LIMIT]),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).filter(lambda c: c[0] * c[0] + c[1] * c[1] <= 1.0),
)


def misshapen(items: list):
    """``items`` (a matrix or a row) one item short or long, as a tuple or a list subclass, or not a list."""
    return st.sampled_from([items[:-1], items + items[-1:], tuple(items), ListSub(items), None, 0.5, "x", {}])


@st.composite
def problem_documents(draw):
    """``(document, n, k)``: a problem document of ``n`` alternatives and ``k`` criteria,
    its matrices of float cells, with up to three cells, rows or matrices replaced by
    odd ones; cells first, so that a later replacement holds an earlier one, and each
    row or matrix at most once."""
    m, n, k = (draw(st.integers(1, 3)) for _ in range(3))
    experts = [[[draw(float_cells) for _ in range(k)] for _ in range(n)] for _ in range(m)]
    places = [(draw(st.integers(1, 3)), draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)),
               draw(st.integers(0, k - 1))) for _ in range(draw(st.integers(0, 3)))]
    for level, e, i, j in sorted(places, reverse=True):
        if level == 3:
            experts[e][i][j] = draw(st.sampled_from(CELL_POOL + EDGE_CELLS))
        elif level == 2 and type(experts[e][i]) is list:
            experts[e][i] = draw(misshapen(experts[e][i]))
        elif level == 1 and type(experts[e]) is list:
            experts[e] = draw(misshapen(experts[e]))
    doc = {
        "alternatives": [f"A{i}" for i in range(n)],
        "criteria": [f"C{j}" for j in range(k)],
        "polarity": ["benefit"] * k,
        "weights": [1.0] + [0.0] * (k - 1),
        "experts": experts,
    }
    return doc, n, k


def last_cell(cell):
    """A 3 x 2 x 2 document of float cells whose last cell is ``cell``."""
    doc = {"alternatives": ["A1", "A2"], "criteria": ["C1", "C2"], "polarity": ["benefit"] * 2,
           "weights": [0.5, 0.5], "experts": [[[[0.5, 0.25], [-0.0, 0.5]]] * 2] * 3}
    doc["experts"] = json.loads(json.dumps(doc["experts"]))
    doc["experts"][2][1][1] = cell
    return doc, 2, 2


@settings(max_examples=400, deadline=None)
@given(problem_documents())
@example(last_cell([1, 0]))
@example(last_cell(EDGE_CELLS[-1]))
@example(({"alternatives": ["A1"], "criteria": ["C1", "C2"], "polarity": ["benefit"] * 2,
           "weights": [0.5, 0.5], "experts": [[[SLACK_LIMIT, SLACK_LIMIT[::-1]]]] * 2}, 1, 2))
def test_parse_matches_a_parser_that_walks_every_node(case):
    doc, n, k = case
    want = columns_or_error(lambda: reference_columns(doc["experts"], n, k))
    assert columns_or_error(lambda: parsed_columns(doc)) == want
    text = json.dumps(doc)
    assert columns_or_error(lambda: parsed_columns(text)) == columns_or_error(
        lambda: reference_columns(json.loads(text)["experts"], n, k))


@pytest.fixture
def boundary_text(monkeypatch):
    """A benchmark document, 3 x 300 x 5 with boundary cells, as JSON text."""
    gen = perfbench_gen(monkeypatch)
    return json.dumps(gen.generate(gen.Params(3, 300, 5, boundary_frac=0.1), 0))


def test_a_valid_document_skips_the_per_cell_loop(boundary_text, monkeypatch):
    def refuse(*args):
        raise AssertionError("a cell was read one at a time")

    monkeypatch.setattr(serialize, "_as_pair", refuse)
    assert parse_problem(boundary_text).shape == (3, 300, 5)
    assert load_case_study().shape == (3, 5, 5)
    assert [len(values) for _, values in load_collections(collections_path())] == [4, 4, 4]


def test_a_parse_runs_no_collection(boundary_text):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        parse_problem(boundary_text)
    finally:
        gc.callbacks.remove(hook)
        if not enabled:
            gc.disable()
    assert started == []


TOO_DEEP = "[" * 100_000 + "]" * 100_000
PARSER_CASES = {
    parse_problem: {"success": json.dumps(last_cell([1, 0])[0]),
                    "value error": '{"alternatives": ["A"], "criteria": ["C"], "polarity": ["cost"], '
                                  '"weights": [1.0], "experts": [[[[0.9, 0.9]]]]}'},
    parse_collections: {"success": '{"elements": [{"values": [[0.5, 0.5]]}]}',
                        "value error": '{"elements": [{"values": [[1.5, 0.0]]}]}'},
    parse_config: {"success": '{"precision": 3}', "value error": '{"precision": -1}'},
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("case", ["success", "invalid JSON", "too deep", "value error"])
@pytest.mark.parametrize("parse", list(PARSER_CASES), ids=lambda f: f.__name__)
def test_each_parser_leaves_the_collector_as_it_found_it(parse, case, enabled):
    text = {"invalid JSON": "{", "too deep": TOO_DEEP}.get(case) or PARSER_CASES[parse][case]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "success":
            parse(text)
        else:
            with pytest.raises(ParseError):
                parse(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
