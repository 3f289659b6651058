"""The column fold of ``solve`` against the per-row operator, and the generator columns it keeps.

For an operator that ``make_operator`` builds, or any ``functools.partial`` of ``cpwa``/``cpwg``
that binds only a ``GeneratorPair``, ``solve`` sums each side's generator terms a whole criterion
column at a time and keeps the ``gen.forward`` columns with the problem's fused matrix.  Every
other callable is called once per row.  Both paths must give the same bits: the same aggregates,
scores, ranking and tie flags, or the same error at the same alternative.
"""

import copy
import functools
import math
import pickle
from decimal import Decimal
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import expected_case_study as ref
from cpfs import (
    OPERATOR_NAMES,
    CircularFuzzyError,
    DecisionProblem,
    DegenerateCenter,
    DomainError,
    Generator,
    GeneratorPair,
    PFV,
    WeightVector,
    algebraic_pair,
    cpwa,
    load_case_study,
    make_operator,
    solve,
)
from cpfs.serialize import parse_problem
from helpers import COMPONENTS, experts_of


def scaled(gen, s):
    """``gen`` with its values multiplied by ``s``: the same t-norm, other floats."""
    return Generator(f"{gen.name}*{s}", lambda t: s * gen.forward(t), lambda y: gen.inverse(y / s),
                     gen.increasing)


PRODUCT = algebraic_pair()
SCALED = GeneratorPair(g=scaled(PRODUCT.g, 3.0), h=scaled(PRODUCT.h, 3.0), q=scaled(PRODUCT.h, 0.5))
SPECS = [(name, None) for name in OPERATOR_NAMES] + [(name, SCALED) for name in OPERATOR_NAMES]


def operator(spec):
    return make_operator(*spec)


def per_row(op):
    """``op`` behind a wrapper, which ``solve`` calls once per row."""
    return functools.wraps(op)(lambda values, weights: op(values, weights))


def outcome(problem, op, precision):
    """``float.hex`` of a solve's aggregates, scored values and similarities, with its ranking
    and tie flags, or the type and message (location included) of its error."""
    try:
        result = solve(problem, op, aggregate_precision=precision)
    except CircularFuzzyError as err:
        return type(err), str(err)
    hexed = lambda values: [tuple(map(float.hex, v.as_tuple())) for v in values]
    return (hexed(result.aggregated), hexed(result.scored), [s.hex() for s in result.similarities],
            [(e.label, e.score.hex(), e.tied) for e in result.ranking.entries])


def kept(problem):
    """The generator columns kept with the problem's fused matrix."""
    return problem._fused[2]


def problem_of(cells, weights, polarity=None):
    """One alternative per row of ``cells[e]``, one criterion per column, one expert per ``e``."""
    n, m = len(cells[0]), len(weights)
    return DecisionProblem(tuple(f"A{i + 1}" for i in range(n)), tuple(f"C{j + 1}" for j in range(m)),
                           polarity or ("benefit",) * m, weights,
                           [[[PFV(*c) for c in row] for row in matrix] for matrix in cells])


# Boundary cells: both axes' ends, points on the unit circle, and the repeated components of helpers.
CIRCLE = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, 0.6), (math.sqrt(0.5), math.sqrt(0.5)), (0.28, 0.96)]
_part = st.one_of(st.sampled_from(COMPONENTS), st.floats(0.0, 1.0))
cells = st.one_of(st.sampled_from(CIRCLE + [(0.0, 0.0), (1.0, 0.0)]),
                  st.tuples(_part, _part).filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0))


@st.composite
def weight_vectors(draw, m):
    """Weights with zeros, the first criterion's among them at times, and at least one non-zero."""
    zero = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    if all(zero):
        zero[draw(st.integers(0, m - 1))] = False
    raw = [0 if z else draw(st.integers(1, 9)) for z in zero]
    return WeightVector(tuple(r / sum(raw) for r in raw))


@st.composite
def problems(draw):
    """One to three experts, one to four alternatives, one to five criteria."""
    k, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    matrix = st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n)
    polarity = tuple(draw(st.lists(st.sampled_from(["benefit", "cost"]), min_size=m, max_size=m)))
    return problem_of(draw(st.lists(matrix, min_size=k, max_size=k)), draw(weight_vectors(m)), polarity)


# The h-terms of this row under (0.1, 0.2, 0.3, 0.4) add to one float left to right and to its
# neighbour in a compensated sum, such as Python 3.12's sum(); the next test pins that.
SUM_ORDER = problem_of([[[(0.8, 0.5), (0.25, 0.5), (0.8, 0.5), (0.8, 0.5)]]], WeightVector.of(0.1, 0.2, 0.3, 0.4))
# Two experts; the first criterion, zero-weighted, holds h(1) = inf and g(0) = inf.
FIRST_ZERO = problem_of([[[(1.0, 0.0), (0.5, 0.5)], [(0.0, 0.0), (0.6, 0.8)]],
                         [[(0.0, 1.0), (0.25, 0.5)], [(1.0, 0.0), (0.8, 0.6)]]], WeightVector.of(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(problems(), st.sampled_from(SPECS), st.sampled_from([None, 0, 1, 2, 3]))
@example(SUM_ORDER, ("cpwa_q", None), None)
@example(SUM_ORDER, ("cpwa_p", None), 3)
@example(FIRST_ZERO, ("cpwa_q", None), None)
@example(FIRST_ZERO, ("cpwg_p", SCALED), 0)
def test_the_column_fold_equals_the_per_row_operator(problem, spec, precision):
    op = operator(spec)
    for _ in range(2):  # the second solve reads the kept columns
        fold = outcome(problem, op, precision)
        assert problem._fused is None or kept(problem), "solve took the per-row path"  # None: fusing failed
        assert fold == outcome(problem, per_row(op), precision)
        if len(fold) == 4:
            rows = [op(row, problem.weights) for row in problem._fused[1]]  # the fused matrix
            assert fold[0] == [tuple(map(float.hex, v.as_tuple())) for v in rows]


def test_the_sum_order_example_tells_a_left_to_right_sum_from_a_compensated_one():
    def compensated(xs):  # Neumaier's sum, as Python 3.12's sum() adds floats
        s = c = 0.0
        for x in xs:
            t = s + x
            c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
            s = t
        return s + c

    terms = [w * PRODUCT.h.forward(p.mu) for w, p in zip(SUM_ORDER.weights, experts_of(SUM_ORDER)[0][0])]
    left_to_right = functools.reduce(add, terms, 0.0)
    assert PRODUCT.h.inverse(left_to_right) != PRODUCT.h.inverse(compensated(terms))
    assert solve(SUM_ORDER, "cpwa_q", aggregate_precision=None).aggregated[0].mu == PRODUCT.h.inverse(left_to_right)


class TestKeptColumns:
    def test_pairs_solved_in_turn_give_a_fresh_problems_bits(self):
        problem = load_case_study()
        for spec in [("cpwa_q", None), ("cpwa_q", SCALED), ("cpwa_q", None), ("cpwg_p", SCALED), ("cpwg_p", None)]:
            for precision in (None, 2):
                fresh = load_case_study()
                assert outcome(problem, operator(spec), precision) == outcome(fresh, operator(spec), precision)

    def test_no_more_than_six_columns_are_kept(self):
        problem = load_case_study()
        for spec in SPECS + SPECS[::-1]:
            solve(problem, operator(spec))
            assert 3 <= len(kept(problem)) <= 6
        assert len(kept(problem)) == 6

    def test_a_wrapped_operator_takes_the_per_row_path(self):
        # functools.wraps copies the partial's __dict__, so only the type tells them apart.
        problem = load_case_study()
        result = solve(problem, per_row(make_operator("cpwg_q")))
        assert result.operator == "cpwg_q" and kept(problem) == {}
        assert result.ranking.ascending_string() == ref.RANKINGS["cpwg_q"]

    @pytest.mark.parametrize("op", [functools.partial(cpwa), functools.partial(cpwa, gens=None)])
    def test_a_partial_that_binds_no_generator_pair_takes_the_per_row_path(self, op):
        problem = load_case_study()
        assert solve(problem, op).ranking.ascending_string() == ref.RANKINGS["cpwa_q"]
        assert kept(problem) == {}

    def test_forward_is_never_called_on_a_cell_of_a_zero_weight_criterion(self):
        calls = []

        def counted(gen):
            return Generator(gen.name, lambda t: calls.append(t) or gen.forward(t), gen.inverse, gen.increasing)

        pair = GeneratorPair(g=counted(PRODUCT.g), h=counted(PRODUCT.h), q=counted(PRODUCT.g))
        cells = [[(0.5, 0.25), (0.25, 0.5), (0.75, 0.5)], [(0.5, 0.5), (0.125, 0.5), (0.25, 0.25)]]
        weights = WeightVector.of(0.0, 0.5, 0.5)
        problem, op = problem_of([cells], weights), make_operator("cpwa_q", pair)
        solve(problem, per_row(op))
        per_row_calls, calls[:] = calls[:], []
        solve(problem, op)
        assert sorted(calls) == sorted(per_row_calls) and len(calls) == 2 * 2 * 3  # rows x criteria x sides
        calls.clear()
        solve(problem, op)
        assert calls == []  # kept

    def test_a_copy_keeps_no_columns(self):
        problem = load_case_study()
        solve(problem, "cpwa_q")
        for twin in (copy.copy(problem), copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
            assert twin._fused is None
            solve(twin, "cpwg_p")
            assert len(kept(twin)) == 3


class TestErrorIdentity:
    """An error of the column path has the type, message and location of the per-row path's."""

    @pytest.mark.parametrize("precision", [None, 2])
    def test_the_first_alternative_to_fail_is_named(self, precision):
        # A1 aggregates to the centre (0, 0), which cannot be scored; A2 aggregates off the disc.
        document = {"alternatives": ["A1", "A2"], "criteria": ["C1", "C2"], "polarity": ["benefit", "benefit"],
                    "weights": [0.2, 0.8], "experts": [[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1e-8], [0.3, 0.9]]]]}
        problem = parse_problem(document)
        with pytest.raises(DegenerateCenter) as error:
            solve(problem, "cpwa_q", aggregate_precision=precision)
        assert error.value.location == "alternative 'A1'"
        assert outcome(problem, "cpwa_q", precision) == outcome(problem, per_row(make_operator("cpwa_q")), precision)
        swapped = dict(document, experts=[[document["experts"][0][1], document["experts"][0][0]]])
        assert "got 1.0005330746311754" in str(outcome(parse_problem(swapped), "cpwa_q", precision)[1])

    def test_an_inverse_that_raises_is_located_at_its_alternative(self):
        def inverse(s):
            if s > 4.0:
                raise DomainError(f"no inverse for {s!r}")
            return PRODUCT.g.inverse(s)

        picky = Generator("picky", PRODUCT.g.forward, inverse)
        op = make_operator("cpwa_q", GeneratorPair(g=picky, h=PRODUCT.h, q=PRODUCT.h))
        cells = [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.01), (0.5, 0.01)], [(0.5, 0.001), (0.5, 0.5)]]
        problem = problem_of([cells], WeightVector.of(0.5, 0.5))
        with pytest.raises(DomainError) as error:
            solve(problem, op)
        assert error.value.location == "alternative 'A2'"
        assert outcome(problem, op, 2) == outcome(problem, per_row(op), 2)

    def test_a_forward_that_returns_no_float_takes_the_per_row_path(self):
        # array("d") would take a Decimal, but a float weight times a Decimal raises.
        decimal = Generator("decimal", lambda t: Decimal(PRODUCT.h.forward(t)), PRODUCT.h.inverse, increasing=True)
        op = make_operator("cpwa_q", GeneratorPair(g=PRODUCT.g, h=decimal, q=PRODUCT.g))
        problem = problem_of([[[(0.5, 0.5), (0.25, 0.5)]]], WeightVector.of(0.5, 0.5))
        for candidate in (op, per_row(op)):
            with pytest.raises(TypeError, match="'float' and 'decimal.Decimal'"):
                solve(problem, candidate)
        assert kept(problem) == {}

    def test_a_forward_that_raises_is_located_as_on_the_per_row_path(self):
        def forward(t):
            if t == 0.25:
                raise DomainError("no value at 0.25")
            return PRODUCT.h.forward(t)

        op = make_operator("cpwg_q", GeneratorPair(g=PRODUCT.g, h=Generator("picky", forward, PRODUCT.h.inverse,
                                                                            increasing=True), q=PRODUCT.g))
        cells = [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.25)], [(0.5, 0.25), (0.5, 0.5)]]
        problem = problem_of([cells], WeightVector.of(0.5, 0.5))
        with pytest.raises(DomainError) as error:
            solve(problem, op)
        assert error.value.location == "alternative 'A2'"
        assert outcome(problem, op, 2) == outcome(problem, per_row(op), 2)
