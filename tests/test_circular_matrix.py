"""The fused matrix held as three float columns from fuse to score.

``build_circular_matrix`` returns a tuple with one ``CPFVRow`` per
alternative: a ``Sequence[CPFV]`` over slices of the fused ``mu``, ``nu`` and
``r`` columns that builds each value on access; ``solve`` hands that row to the
operator.  The rows must equal the per-cell reference fuse bit for bit
(compared as ``float.hex``, so the sign of ``-0.0`` counts); the rows must
behave, compare and hash as the tuples of values they replace; and the fused
point check, made over whole columns, must raise exactly the error ``CPFV``
raises for the first bad cell.
"""

import math
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import (
    CPFV,
    IDEAL,
    OPERATOR_NAMES,
    PFV,
    CircularFuzzyError,
    ConstraintViolation,
    DecisionProblem,
    WeightVector,
    build_circular_matrix,
    make_operator,
    solve,
)
from cpfs.fusion import _fused_columns
from cpfs.serialize import parse_problem
from cpfs.values import CPFVRow, _require_circles
from helpers import experts_of, perfbench_gen, point_values, problems, reference_fuse


def hexed(v):
    return tuple(x.hex() for x in v.as_tuple())


def ideal(values, w):
    """An operator whose aggregate can always be scored, so any problem solves."""
    return IDEAL


def assert_columns_equal_the_reference(result):
    experts = experts_of(result.normalized)
    want = [[hexed(reference_fuse([matrix[i][j] for matrix in experts])) for j in range(len(row))]
            for i, row in enumerate(experts[0])]
    matrix = result.circular_matrix
    got = [list(zip(*(map(float.hex, getattr(row, c)) for c in ("mu", "nu", "r")))) for row in matrix]
    assert got == want
    assert [[hexed(v) for v in row] for row in matrix] == want


# -- the columns against the per-cell reference --------------------------------


@settings(max_examples=150, deadline=None)
@given(problems(max_experts=6))
def test_solve_holds_the_reference_fuse_of_every_cell(problem):
    assert_columns_equal_the_reference(solve(problem, ideal))


@pytest.mark.parametrize("params, precision", [
    (dict(experts=10, alternatives=500, criteria=20), 2),
    (dict(experts=3, alternatives=3000, criteria=5, boundary_frac=0.1, zero_weight=True), None),
], ids=["panel", "tall"])
def test_the_benchmark_problems_hold_the_reference_fuse(monkeypatch, params, precision):
    gen = perfbench_gen(monkeypatch)
    problem = parse_problem(gen.generate(gen.Params(**params), 0))
    assert_columns_equal_the_reference(solve(problem, "cpwa_q", aggregate_precision=precision))


@settings(max_examples=150, deadline=None)
@given(problems(max_experts=6))
def test_the_rows_slice_the_kernel_columns_of_the_expert_blocks(problem):
    step = len(problem.alternatives) * len(problem.criteria)
    blocks = range(0, len(problem.mu), step)
    cells = _fused_columns([problem.mu[b : b + step] for b in blocks], [problem.nu[b : b + step] for b in blocks])
    rows = build_circular_matrix(problem)
    for c in ("mu", "nu", "r"):
        assert [x.hex() for row in rows for x in getattr(row, c)] == list(map(float.hex, getattr(cells, c)))


# -- the matrix and its row views --------------------------------------------------

ROWS = (
    (CPFV(0.5, 0.4, 0.1), CPFV(-0.0, 1.0, 0.0), CPFV(0.6, 0.8, 1.0)),
    (CPFV(1.0, 0.0, 0.25), CPFV(0.3, 0.3, 0.5), CPFV(5e-324, 0.0, 0.75)),
    (CPFV(0.2, 0.9, 0.125), CPFV(0.7, 0.1, 0.0), CPFV(0.0, 0.0, 0.5)),
)


def of_rows(rows):
    return tuple(map(CPFVRow.of, rows))


@pytest.fixture(params=["of rows", "fused"])
def matrix(request):
    if request.param == "of rows":
        return of_rows(ROWS), ROWS
    problem = DecisionProblem(("A1", "A2"), ("C1", "C2", "C3"), ("benefit",) * 3, WeightVector.uniform(3),
                              [[[PFV(0.5, 0.4), PFV(0.0, 1.0), PFV(0.8, 0.6)],
                                [PFV(1.0, 0.0), PFV(0.3, 0.3), PFV(0.1, 0.2)]]] * 2)
    rows = tuple(tuple(reference_fuse([cell] * 2) for cell in row) for row in experts_of(problem)[0])
    return build_circular_matrix(problem), rows


def test_the_matrix_is_a_read_only_sequence_of_row_tuples(matrix):
    """A tuple of ``CPFVRow`` views, one per alternative, each ``==`` and hashed as its tuple of values."""
    matrix, rows = matrix
    n = len(rows)
    assert type(matrix) is tuple and len(matrix) == n
    assert [type(view) for view in matrix] == [CPFVRow] * n and all(len(view) == 3 for view in matrix)
    for i in range(-n, n):
        assert matrix[i] is matrix[i % n] and matrix[i] == rows[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError, match="^tuple index out of range$"):
            matrix[i]
    for cut in (slice(None), slice(1, None), slice(None, None, -1), slice(5, 9)):
        assert type(matrix[cut]) is tuple and matrix[cut] == rows[cut]
        assert all(type(view) is CPFVRow for view in matrix[cut])
    assert tuple(matrix) == rows and list(reversed(matrix)) == list(reversed(rows))
    assert matrix == rows and rows == matrix and matrix == of_rows(rows) and hash(matrix) == hash(rows)
    assert matrix != rows[:-1] and matrix != list(rows)
    with pytest.raises(TypeError):
        matrix[0] = rows[1]


def test_a_row_view_is_a_sequence_of_its_values(matrix):
    matrix, rows = matrix
    for view, row in zip(matrix, rows):
        assert type(view) is CPFVRow and len(view) == len(row) == 3
        for j in range(-3, 3):
            assert type(view[j]) is CPFV and hexed(view[j]) == hexed(row[j])
        for j in (3, -4):
            with pytest.raises(IndexError):
                view[j]
        for cut in (slice(None), slice(1, None), slice(None, None, -1), slice(4, 7)):
            assert type(view[cut]) is CPFVRow and view[cut] == row[cut]
        assert [hexed(v) for v in view] == [hexed(v) for v in row]
        assert view == row and row == view and view == CPFVRow.of(row) and view != row[:2]
        assert hash(view) == hash(row) and {view, row} == {row}
        assert row[1] in view and view.index(row[2]) == 2


cpfvs = st.tuples(point_values, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))).map(
    lambda p: CPFV(p[0].mu, p[0].nu, p[1]))


@st.composite
def rows_and_weights(draw):
    row = tuple(draw(st.lists(cpfvs, min_size=1, max_size=6)))
    shares = draw(st.lists(st.integers(0, 5), min_size=len(row), max_size=len(row)).filter(any))
    return row, WeightVector(tuple(s / sum(shares) for s in shares))


@settings(max_examples=300)
@example(((CPFV(1.0, 0.0, 0.0), CPFV(0.0, 1.0, 1.0)), WeightVector.of(0.0, 1.0)))
@given(rows_and_weights())
def test_the_operators_give_the_same_bits_on_a_view_and_on_a_tuple(case):
    row, w = case
    view = CPFVRow(*([getattr(v, c) for v in row] for c in ("mu", "nu", "r")))
    for name in OPERATOR_NAMES:
        assert outcome(make_operator(name), view, w) == outcome(make_operator(name), row, w)


def outcome(op, values, w):
    """The bits of ``op(values, w)``, or its error: an aggregate can leave the disc."""
    try:
        return hexed(op(values, w))
    except CircularFuzzyError as err:
        return type(err), str(err)


def test_a_custom_operator_sees_the_fused_row_through_len_index_and_iteration():
    problem = DecisionProblem(("A1", "A2"), ("C1", "C2"), ("benefit", "cost"), (0.25, 0.75),
                              [[[PFV(0.5, 0.4), PFV(0.0, 1.0)], [PFV(1.0, 0.0), PFV(0.3, 0.6)]],
                               [[PFV(0.2, 0.1), PFV(0.6, 0.8)], [PFV(0.7, 0.7), PFV(-0.0, 0.5)]]])
    seen = []

    def first(values, w):
        by_index = tuple(values[j] for j in range(len(values)))
        assert tuple(values) == by_index and values[-1] == by_index[-1]
        seen.append(by_index)
        return by_index[0]

    result = solve(problem, first)
    fused = result.circular_matrix
    assert [[hexed(v) for v in row] for row in seen] == [[hexed(v) for v in row] for row in fused]
    assert result.aggregated == tuple(row[0] for row in seen)


# -- the column point check ----------------------------------------------------------


def cpfv_error(mu, nu, r):
    with pytest.raises(Exception) as raised:
        CPFV(mu, nu, r)
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("bad", [
    (0.9, 0.5, 0.25),        # off the disc
    (0.5, 0.4, 1.5),         # radius above 1
    (0.5, 0.4, -0.25),       # negative radius
    (1.0000000004, 0.0, 0.0),  # on the disc within the slack, but above 1
    (-0.25, 0.5, 0.0),       # negative membership
    (0.5, math.nan, 0.0),    # not finite, where min() and max() miss it
    (0.5, 0.4, math.nan),
], ids=["disc", "radius", "negative radius", "mu above 1", "negative mu", "nan nu", "nan radius"])
def test_the_column_check_raises_the_error_of_cpfv(bad):
    good = [(0.6, 0.8, 1.0), (-0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]
    assert column_error(good + [bad] + good) == cpfv_error(*bad)


def test_the_column_check_names_the_first_bad_cell():
    cells = [(0.5, 0.5, 0.5), (0.5, 0.4, 1.5), (0.9, 0.5, 2.0)]
    assert column_error(cells) == cpfv_error(0.5, 0.4, 1.5)


def column_error(cells):
    with pytest.raises(Exception) as raised:
        _require_circles(*map(list, zip(*cells)))
    return type(raised.value), str(raised.value)


def test_the_column_check_passes_valid_columns():
    cells = [(0.6, 0.8, 1.0), (-0.0, 0.0, 0.0), (1.0, 0.0, 0.5), (0.8, 0.6 + 1e-10, 0.25), (5e-324, 1.0, 0.0)]
    assert _require_circles(*map(list, zip(*cells))) is None


def test_fusing_checks_every_fused_cell():
    # One expert: each fused cell is its own input, so an unchecked input cell off
    # the disc becomes a fused cell off the disc.
    mu, nu = [0.5, 0.9, 0.3], [0.5, 0.5, 0.3]
    fused_mu = math.sqrt(math.fsum([0.9 * 0.9]) / 1)
    with pytest.raises(ConstraintViolation) as raised:
        _fused_columns([mu], [nu])
    assert (type(raised.value), str(raised.value)) == cpfv_error(fused_mu, 0.5, abs(fused_mu - 0.9))
    problem = DecisionProblem._of_columns(("A1",), ("C1", "C2", "C3"), ("benefit",) * 3, (0.2, 0.3, 0.5),
                                          array("d", mu), array("d", nu))
    with pytest.raises(ConstraintViolation) as raised:
        build_circular_matrix(problem)
    error_type, message = cpfv_error(fused_mu, 0.5, abs(fused_mu - 0.9))
    assert (type(raised.value), str(raised.value)) == (error_type, f"alternative 'A1': criterion 'C2': {message}")
