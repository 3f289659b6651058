import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from copy import copy as shallow_copy
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from cpfs import (
    CPFV,
    CircularFuzzyError,
    ConstraintViolation,
    DecisionProblem,
    DegenerateCenter,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    IDEAL,
    InvalidWeights,
    LengthMismatch,
    PFV,
    Ranking,
    UnknownOperator,
    WeightVector,
    algebraic_pair,
    complexity_estimate,
    complexity_sweep,
    csm_to_ideal,
    load_case_study,
    make_operator,
    normalize,
    solve,
)
import cpfs.mcdm
import expected_case_study as ref
from cpfs.serialize import parse_problem
from helpers import all_pairs_ranking, bits, experts_of, perfbench_gen, problems


@pytest.fixture(scope="module")
def problem():
    return load_case_study()


def small_problem(cells, polarity=("benefit", "benefit"), weights=(0.5, 0.5)):
    """Two alternatives x two criteria x one expert."""
    return DecisionProblem(
        alternatives=("A1", "A2"),
        criteria=("C1", "C2"),
        polarity=polarity,
        weights=WeightVector(tuple(weights)),
        experts=(tuple(tuple(PFV(*c) for c in row) for row in cells),),
    )


class TestDecisionProblem:
    def test_case_study_shape(self, problem):
        assert problem.shape == (3, 5, 5)

    def test_ragged_expert_rejected(self):
        with pytest.raises(DimensionMismatch):
            DecisionProblem(
                alternatives=("A1", "A2"),
                criteria=("C1", "C2"),
                polarity=("benefit", "benefit"),
                weights=WeightVector.of(0.5, 0.5),
                experts=(
                    ((PFV(0.5, 0.5), PFV(0.5, 0.5)), (PFV(0.5, 0.5),)),
                ),
            )

    def test_expert_shape_mismatch_rejected(self):
        ok = ((PFV(0.5, 0.5), PFV(0.5, 0.5)), (PFV(0.5, 0.5), PFV(0.5, 0.5)))
        bad = ((PFV(0.5, 0.5),), (PFV(0.5, 0.5),))
        with pytest.raises(DimensionMismatch):
            DecisionProblem(
                alternatives=("A1", "A2"),
                criteria=("C1", "C2"),
                polarity=("benefit", "benefit"),
                weights=WeightVector.of(0.5, 0.5),
                experts=(ok, bad),
            )

    P = PFV(0.5, 0.5)

    class IterNone:
        """A matrix whose own ``__iter__`` raises a ``TypeError``."""

        def __iter__(self):
            return iter(None)

    # A wrong kind raises Python's own TypeError, unwrapped and unlocated.
    @pytest.mark.parametrize("argument, value, message", [
        ("alternatives", 5, "'int' object is not iterable"),
        ("criteria", 5, "'int' object is not iterable"),
        ("polarity", 5, "'int' object is not iterable"),
        ("weights", 5, "'int' object is not iterable"),
        ("experts", 5, "'int' object is not iterable"),
        ("experts", [5], "'int' object is not iterable"),
        ("experts", [[[P, P], [P, P]], None], "'NoneType' object is not iterable"),
        ("experts", [[[P, P], 5]], "'int' object is not iterable"),
        ("experts", [IterNone()], "'NoneType' object is not iterable"),  # the message from inside __iter__
    ], ids=["alternatives", "criteria", "polarity", "weights", "experts", "matrix not iterable",
            "later matrix None", "row not iterable", "matrix iter raises"])
    def test_an_argument_of_the_wrong_kind_raises_type_error(self, argument, value, message):
        arguments = dict(alternatives=("A1", "A2"), criteria=("C1", "C2"), polarity=("benefit",) * 2,
                         weights=(0.5, 0.5), experts=[[[self.P, self.P], [self.P, self.P]]])
        DecisionProblem(**arguments)  # the table's base case is a valid problem
        with pytest.raises(TypeError) as raised:
            DecisionProblem(**{**arguments, argument: value})
        assert type(raised.value) is TypeError and str(raised.value) == message

    @pytest.mark.parametrize("experts, message, location", [
        ([[[P, P], [P, P]], [[P, P]]],
         "expert matrix 1 does not match shape 2 alternatives x 2 criteria", "experts[1]"),
        ([[[P, P], [P]]], "expert matrix 0 does not match shape 2 alternatives x 2 criteria", "experts[0]"),
        ([[[P, P], [P, P]], [[P, P], [P, (0.5, 0.5)]]],
         "expert matrix 1 contains a non-PFV cell", "experts[1][1][1]"),
    ], ids=["rows missing", "row short", "cell not a PFV"])
    def test_a_malformed_expert_matrix_is_located(self, experts, message, location):
        with pytest.raises(DimensionMismatch) as raised:
            DecisionProblem(("A1", "A2"), ("C1", "C2"), ("benefit",) * 2, (0.5, 0.5), experts)
        assert (raised.value.args[0], raised.value.location) == (message, location)

    @pytest.mark.parametrize("later", [(P, P), 5], ids=["then a good row", "then a row not iterable"])
    def test_a_type_error_inside_a_row_is_not_taken_for_a_shape_error(self, later):
        row = (None + x for x in (1, 2))  # iterable, but iterating it raises TypeError
        with pytest.raises(TypeError, match="unsupported operand"):
            DecisionProblem(("A1", "A2"), ("C1", "C2"), ("benefit",) * 2, (0.5, 0.5), [[row, later]])

    def test_a_repeated_label_is_named(self):
        cells = ((PFV(0.5, 0.5),) * 2,) * 2
        message = "^alternatives: labels must be unique, 'A1' repeats$"
        with pytest.raises(DimensionMismatch, match=message) as raised:
            DecisionProblem(("A1", "A1"), ("C1", "C2"), ("benefit",) * 2, (0.5, 0.5), (cells,))
        assert raised.value.location == "alternatives"
        with pytest.raises(DimensionMismatch, match="^criteria: labels must be unique, 'C2' repeats$") as raised:
            DecisionProblem(("A1", "A2"), ("C2", "C2"), ("benefit",) * 2, (0.5, 0.5), (cells,))
        assert raised.value.location == "criteria"

    def test_polarity_length_checked(self):
        with pytest.raises(LengthMismatch, match="^polarity: got 1 for 2 criteria$"):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                polarity=("benefit",),
            )

    def test_polarity_values_checked(self):
        message = r"^polarity\[1\]: must be 'benefit' or 'cost', got 'profit'$"
        with pytest.raises(DomainError, match=message) as raised:
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                polarity=("benefit", "profit"),
            )
        assert raised.value.location == "polarity[1]"

    def test_weight_length_checked(self):
        with pytest.raises(LengthMismatch, match="^weights: got 3 for 2 criteria$"):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                weights=(0.2, 0.3, 0.5),
            )

    def test_weight_invariants_checked(self):
        with pytest.raises(InvalidWeights, match="^weights: must sum to 1 within 1e-09, got 0.9$") as raised:
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                weights=(0.4, 0.5),
            )
        assert raised.value.location == "weights"

    def test_plain_weights_are_checked_as_a_weight_vector(self):
        cells = (((PFV(0.5, 0.5), PFV(0.5, 0.5)),),)
        p = DecisionProblem(("A1",), ("C1", "C2"), ("benefit", "cost"), (0.5, 0.5), cells)
        assert p.weights == WeightVector.of(0.5, 0.5)
        message = r"^weights\[0\]: weight must be a real number, got 'x'$"
        with pytest.raises(InvalidWeights, match=message) as raised:
            DecisionProblem(("A1",), ("C1", "C2"), ("benefit", "cost"), ("x", "y"), cells)
        assert raised.value.location == "weights[0]"

    def test_no_experts_rejected(self):
        with pytest.raises(EmptyInput, match="^experts: need at least one expert matrix$") as raised:
            DecisionProblem(("A1",), ("C1",), ("benefit",), WeightVector.of(1.0), ())
        assert raised.value.location == "experts"

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            DecisionProblem(
                alternatives=(),
                criteria=("C1",),
                polarity=("benefit",),
                weights=WeightVector.of(1.0),
                experts=((),),
            )


class TestNormalize:
    def test_reproduces_reference_matrix_exactly(self, problem):
        normalized = normalize(problem)
        for e, matrix in enumerate(experts_of(normalized)):
            for i, row in enumerate(matrix):
                for j, cell in enumerate(row):
                    mu, nu = ref.NORMALIZED[e][i][j]
                    assert (cell.mu, cell.nu) == (mu, nu), f"expert {e}, cell ({i},{j})"

    def test_all_benefit_problem_unchanged(self):
        p = small_problem([[(0.5, 0.5), (0.6, 0.4)], [(0.3, 0.7), (0.2, 0.8)]])
        assert experts_of(normalize(p)) == experts_of(p)

    def test_involution(self, problem):
        assert experts_of(normalize(normalize(problem))) == experts_of(problem)

    def test_only_cost_columns_swapped(self):
        p = small_problem(
            [[(0.5, 0.3), (0.6, 0.4)], [(0.3, 0.7), (0.2, 0.8)]],
            polarity=("cost", "benefit"),
        )
        n = normalize(p)
        assert experts_of(n)[0][0][0] == PFV(0.3, 0.5)
        assert experts_of(n)[0][0][1] == PFV(0.6, 0.4)


class TestSolve:
    @pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p"])
    def test_reference_rankings(self, problem, operator):
        result = solve(problem, operator)
        assert result.ranking.ascending_string() == ref.RANKINGS[operator]
        assert result.ranking.best == ref.BEST[operator]

    def test_scores_are_the_similarities_of_the_scored_values(self, problem):
        result = solve(problem, "cpwa_q")
        assert result.similarities == tuple(csm_to_ideal(v) for v in result.scored)
        assert sorted(result.ranking.labels()) == sorted(problem.alternatives)

    def test_identical_solves_give_equal_results_with_equal_hashes(self, problem):
        first, second = solve(load_case_study(), "cpwg_p"), solve(load_case_study(), "cpwg_p")
        assert first.circular_matrix is not second.circular_matrix
        assert first == second and hash(first) == hash(second)
        again, unrounded = solve(problem, "cpwg_p"), solve(problem, "cpwa_q", aggregate_precision=None)
        assert again == first and hash(again) == hash(first)
        assert again.normalized is unrounded.normalized
        assert again.circular_matrix is unrounded.circular_matrix
        # The rows are sliced once, at fuse time: every solve and every read returns the same row objects.
        assert all(row is again.circular_matrix[i] for i, row in enumerate(unrounded.circular_matrix))

    def test_scores_non_increasing(self, problem):
        for operator in ("cpwa_q", "cpwg_p"):
            scores = solve(problem, operator).ranking.scores()
            assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_full_precision_mode_skips_quantization(self, problem):
        result = solve(problem, "cpwa_q", aggregate_precision=None)
        assert result.scored == result.aggregated

    @pytest.mark.parametrize("digits", [-1, True, 2.0], ids=repr)
    def test_bad_aggregate_precision_is_a_domain_error(self, problem, digits):
        with pytest.raises(DomainError, match="non-negative integer"):
            solve(problem, "cpwa_q", aggregate_precision=digits)

    def test_quantized_mode_scores_rounded_values(self, problem):
        result = solve(problem, "cpwa_q", aggregate_precision=2)
        assert result.scored != result.aggregated
        for v in result.scored:
            assert round(v.mu, 2) == v.mu

    def test_gens_override_matches_named_variant(self, problem):
        via_gens = solve(problem, make_operator("cpwa_q", algebraic_pair("algebraic_p")))
        named = solve(problem, "cpwa_p")
        assert via_gens.similarities == named.similarities
        assert via_gens.operator == "cpwa_q"  # a built operator reports its identifier

    def test_custom_callable_operator(self, problem):
        def first_value(values, w):
            return values[0]

        result = solve(problem, first_value)
        assert result.operator == "first_value"
        assert len(result.ranking.entries) == 5

    def test_single_alternative(self):
        p = DecisionProblem(
            alternatives=("Only",),
            criteria=("C1", "C2"),
            polarity=("benefit", "cost"),
            weights=WeightVector.of(0.5, 0.5),
            experts=(((PFV(0.5, 0.5), PFV(0.6, 0.4)),),),
        )
        for op in ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p"):
            result = solve(p, op)
            assert result.ranking.labels() == ("Only",)

    def test_ideal_row_ranks_first(self, problem):
        # replace one alternative's fused row with the ideal and re-aggregate
        base = solve(problem, "cpwa_q")
        k = len(problem.criteria)
        for i in range(len(problem.alternatives)):
            rows = [list(r) for r in base.circular_matrix]
            rows[i] = [IDEAL] * k
            scores = [
                csm_to_ideal(make_operator("cpwa_q")(row, problem.weights)) for row in rows
            ]
            assert max(range(len(scores)), key=scores.__getitem__) == i

    def test_tied_alternatives_keep_input_order(self):
        cells = [[(0.5, 0.5), (0.6, 0.4)], [(0.5, 0.5), (0.6, 0.4)]]
        result = solve(small_problem(cells), "cpwa_q")
        assert result.ranking.labels() == ("A1", "A2")
        assert all(entry.tied for entry in result.ranking.entries)

    def test_unknown_operator(self, problem):
        with pytest.raises(UnknownOperator):
            solve(problem, "cpwa_z")

    @pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p"])
    def test_degenerate_score_names_the_alternative(self, operator):
        cells = [[(0.5, 0.5), (0.6, 0.4)], [(0.0, 0.0), (0.0, 0.0)]]
        with pytest.raises(DegenerateCenter, match="alternative 'A2'"):
            solve(small_problem(cells), operator)

    def test_a_solve_error_is_the_same_error_located_at_its_alternative(self):
        cells = [[(0.0, 0.0), (0.0, 0.0)], [(0.5, 0.5), (0.6, 0.4)]]
        with pytest.raises(DegenerateCenter) as raised:
            solve(small_problem(cells), "cpwa_q")
        with pytest.raises(DegenerateCenter) as direct:  # A1 aggregates to <0, 0; 0>
            csm_to_ideal(CPFV(0.0, 0.0, 0.0))
        err = raised.value
        assert type(err) is DegenerateCenter and err.args == direct.value.args
        assert err.location == "alternative 'A1'"
        assert str(err) == f"alternative 'A1': {direct.value}"

    def test_a_location_the_error_already_has_follows_the_alternative(self):
        def operator(values, weights):
            err = DomainError("no aggregate")
            err.location = "row"
            raise err

        with pytest.raises(DomainError) as raised:
            solve(small_problem([[(0.5, 0.5)] * 2] * 2), operator)
        assert raised.value.location == "alternative 'A1': row"
        assert str(raised.value) == "alternative 'A1': row: no aggregate"

    @pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p"])
    def test_rounding_off_the_disc_names_the_alternative(self, operator, monkeypatch):
        # A285 aggregates to about (0.84751, 0.52514), on the unit circle;
        # half-up to two decimals that is (0.85, 0.53), outside the disc.
        gen = perfbench_gen(monkeypatch)
        doc = gen.generate(gen.Params(3, 600, 5, boundary_frac=0.1, zero_weight=True), 11)
        problem = parse_problem(doc)
        with pytest.raises(ConstraintViolation, match=r"alternative 'A285': .* got 1\.0034 "):
            solve(problem, operator)
        assert solve(problem, operator, aggregate_precision=None).ranking


OPERATORS = ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p")


@pytest.fixture
def fuses(monkeypatch):
    """The problems that ``solve`` fuses, in call order."""
    fused, fuse = [], cpfs.mcdm.build_circular_matrix
    monkeypatch.setattr(cpfs.mcdm, "build_circular_matrix", lambda p: fused.append(p) or fuse(p))
    return fused


def fresh(problem):
    """A newly built problem with the cells of ``problem``."""
    return DecisionProblem(problem.alternatives, problem.criteria, problem.polarity, problem.weights,
                           experts_of(problem))


def result_hex(result):
    """``float.hex`` of every column and number of a solve's result, so the sign of ``-0.0`` counts,
    with its labels and tie flags."""
    rows = result.circular_matrix
    fused = ([x for row in rows for x in getattr(row, c)] for c in ("mu", "nu", "r"))
    columns = (result.problem.mu, result.problem.nu, result.normalized.mu, result.normalized.nu,
               *fused, result.similarities)
    return ([list(map(float.hex, c)) for c in columns], [len(row) for row in rows],
            [tuple(map(float.hex, v.as_tuple())) for v in (*result.aggregated, *result.scored)],
            [(e.label, e.score.hex(), e.tied) for e in result.ranking.entries], result.operator)


def result_bits(problem, operator, precision):
    """``result_hex`` of a solve's result, or the type and message of its error."""
    try:
        result = solve(problem, operator, aggregate_precision=precision)
    except CircularFuzzyError as err:
        return type(err), str(err)
    return result_hex(result)


class TestFusedOnce:
    """Every solve of one problem object reuses the normalized problem and fused matrix of its
    first: the problem's columns are read-only, so they hold the same bits."""

    def test_the_four_operators_at_two_precisions_fuse_once(self, fuses):
        problem = load_case_study()
        for precision in (2, None):
            for operator in OPERATORS:
                result = solve(problem, operator, aggregate_precision=precision)
                if precision == 2:
                    assert result.ranking.ascending_string() == ref.RANKINGS[operator]
        assert len(fuses) == 1 and len(problem._fused[2]) == 6  # the generator columns the four share

    @given(problems())
    def test_reused_results_have_the_bits_of_a_fresh_problem(self, problem):
        for _ in range(2):  # the second round reuses the memo of the first
            for operator, precision in product(OPERATORS, (2, None)):
                assert result_bits(problem, operator, precision) == result_bits(fresh(problem), operator, precision)

    @pytest.mark.parametrize("made", ["parsed", "built", "normalized", "unpickled", "copied"])
    def test_a_write_raises_type_error_and_changes_nothing(self, fuses, made):
        case = load_case_study()
        problem = {"parsed": lambda: case, "built": lambda: fresh(case),
                   "normalized": lambda: solve(case).normalized,
                   "unpickled": lambda: pickle.loads(pickle.dumps(case)), "copied": lambda: shallow_copy(case)}[made]()
        assert type(problem.mu.obj) is type(problem.nu.obj) is bytes
        before = result_hex(solve(problem, "cpwa_q"))
        memo, cells, solves = problem._fused, bits(problem), len(fuses)
        for column in (problem.mu, problem.nu):
            with pytest.raises(TypeError, match="read-only"):
                column[0] = 0.75
            with pytest.raises(TypeError, match="read-only"):
                column[1::2] = column[0:-1:2]
        assert problem._fused is memo and len(memo[2]) == 3  # the generator columns of cpwa_q
        assert bits(problem) == cells and result_hex(solve(problem, "cpwa_q")) == before
        assert len(fuses) == solves

    def test_a_negative_zero_under_a_cost_criterion_keeps_its_sign(self, fuses):
        problem = small_problem([[(-0.0, 0.5), (0.5, 0.5)], [(0.25, 0.5), (0.75, 0.25)]], ("cost", "benefit"))
        result = solve(problem, "cpwa_q")
        assert math.copysign(1.0, problem.mu[0]) == math.copysign(1.0, result.normalized.nu[0]) == -1.0
        assert result_bits(problem, "cpwa_q", 2) == result_bits(fresh(problem), "cpwa_q", 2)
        assert len(fuses) == 2  # the problem once, for both of its solves, and its fresh copy

    def test_threads_that_fuse_one_problem_at_once_get_the_serial_results(self):
        serial = {operator: result_bits(load_case_study(), operator, 2) for operator in OPERATORS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(5):
                    problem = load_case_study()
                    solves = [(op, pool.submit(result_bits, problem, op, 2)) for op in OPERATORS * 4]
                    assert all(future.result(timeout=60) == serial[op] for op, future in solves)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_solved_problem_pickles_without_its_fused_matrix(self, fuses, protocol):
        problem = load_case_study()
        solve(problem, "cpwg_q")
        copy = pickle.loads(pickle.dumps(problem, protocol))
        assert copy == problem and bits(copy) == bits(problem) and copy._fused is None  # no generator columns
        for operator in OPERATORS:
            assert result_bits(copy, operator, 2) == result_bits(problem, operator, 2)
        assert len(fuses) == 2  # the pickle left the fused matrix behind; the copy fused once

    def test_a_result_pickles_at_every_protocol(self, monkeypatch):
        gen = perfbench_gen(monkeypatch)
        tall = parse_problem(gen.generate(gen.Params(3, 3000, 5, boundary_frac=0.1, zero_weight=True), 0))
        for result in (solve(load_case_study()), solve(tall, "cpwg_p", aggregate_precision=None)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(result, protocol))
                assert copy == result and result_hex(copy) == result_hex(result), protocol


class TestRanking:
    def test_from_scores_orders_best_first(self):
        r = Ranking.from_scores(["a", "b", "c"], [0.2, 0.9, 0.5])
        assert r.labels() == ("b", "c", "a")
        assert r.best == "b"
        assert r.ascending_string() == "a < c < b"

    def test_tie_flags(self):
        r = Ranking.from_scores(["a", "b", "c"], [0.5, 0.9, 0.5])
        flags = {e.label: e.tied for e in r.entries}
        assert flags == {"a": True, "b": False, "c": True}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Ranking.from_scores(["a"], [0.5, 0.5])


# A small pool makes ties common; the NaN is one object, so it also meets itself.
TIE_POOL = [0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan]


@given(st.lists(st.one_of(st.sampled_from(TIE_POOL), st.floats()), max_size=40))
@example([])
@example([0.5])
@example([0.0, -0.0])
@example([0.5, math.nan, 0.5])
def test_tie_flags_match_all_pairs_rule(scores):
    labels = [f"a{i}" for i in range(len(scores))]
    got = [(e.label, repr(e.score), e.tied) for e in Ranking.from_scores(labels, scores).entries]
    want = [(label, repr(s), tied) for label, s, tied in all_pairs_ranking(labels, scores)]
    assert got == want


class TestComplexityEstimate:
    def test_reference_counts(self):
        assert complexity_estimate(5, 5, 3, "cpwa_q") == 1380
        assert complexity_estimate(5, 5, 3, "cpwg_q") == 1380
        assert complexity_estimate(5, 5, 3, "cpwa_p") == 1440
        assert complexity_estimate(5, 5, 3, "cpwg_p") == 1440

    def test_smallest_case(self):
        # 2 + 2*2*2*13 + 50
        assert complexity_estimate(2, 2, 1, "cpwa_q") == 156

    @pytest.mark.parametrize("k,n,m", [(1, 5, 3), (5, 1, 3), (5, 5, 0)])
    def test_domain_errors(self, k, n, m):
        with pytest.raises(DomainError):
            complexity_estimate(k, n, m)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            complexity_estimate(2.5, 5, 3)
        with pytest.raises(DomainError):
            complexity_estimate(True, 5, 3)

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperator):
            complexity_estimate(5, 5, 3, "owa")

    @pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p"])
    def test_strictly_increasing_in_each_argument(self, operator):
        for k in range(2, 11):
            for n in range(2, 11):
                for m in range(1, 4):
                    here = complexity_estimate(k, n, m, operator)
                    assert complexity_estimate(k + 1, n, m, operator) > here
                    assert complexity_estimate(k, n + 1, m, operator) > here
                    assert complexity_estimate(k, n, m + 1, operator) > here

    @pytest.mark.parametrize("operator", ["cpwa_q", "cpwa_p"])
    def test_minimum_at_smallest_corner(self, operator):
        for m in (1, 2, 3):
            grid = complexity_sweep(range(2, 11), range(2, 11), [m], operator)
            smallest = min(grid, key=lambda row: row[3])
            assert (smallest[0], smallest[1]) == (2, 2)

    def test_sweep_checks_the_operator_over_an_empty_grid(self):
        with pytest.raises(UnknownOperator):
            complexity_sweep([], [], [], "bogus")

    def test_sweep_shape(self):
        rows = complexity_sweep(range(2, 5), range(2, 4), range(1, 3))
        assert len(rows) == 3 * 2 * 2
        assert rows[0] == (2, 2, 1, complexity_estimate(2, 2, 1))
