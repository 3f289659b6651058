import math

import pytest
from hypothesis import example, given, strategies as st

from cpfs import (
    CPFV,
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
    aggregate,
    algebraic_pair,
    complexity_estimate,
    complexity_sweep,
    csm_to_ideal,
    load_case_study,
    normalize,
    solve,
)
import expected_case_study as ref
from helpers import all_pairs_ranking


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

    def test_polarity_length_checked(self):
        with pytest.raises(LengthMismatch):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                polarity=("benefit",),
            )

    def test_polarity_values_checked(self):
        with pytest.raises(DomainError):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                polarity=("benefit", "profit"),
            )

    def test_weight_length_checked(self):
        with pytest.raises(LengthMismatch):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                weights=(0.2, 0.3, 0.5),
            )

    def test_weight_invariants_checked(self):
        with pytest.raises(InvalidWeights):
            small_problem(
                [[(0.5, 0.5), (0.5, 0.5)], [(0.5, 0.5), (0.5, 0.5)]],
                weights=(0.4, 0.5),
            )

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
        for e, matrix in enumerate(normalized.experts):
            for i, row in enumerate(matrix):
                for j, cell in enumerate(row):
                    mu, nu = ref.NORMALIZED[e][i][j]
                    assert (cell.mu, cell.nu) == (mu, nu), f"expert {e}, cell ({i},{j})"

    def test_all_benefit_problem_unchanged(self):
        p = small_problem([[(0.5, 0.5), (0.6, 0.4)], [(0.3, 0.7), (0.2, 0.8)]])
        assert normalize(p).experts == p.experts

    def test_involution(self, problem):
        assert normalize(normalize(problem)).experts == problem.experts

    def test_only_cost_columns_swapped(self):
        p = small_problem(
            [[(0.5, 0.3), (0.6, 0.4)], [(0.3, 0.7), (0.2, 0.8)]],
            polarity=("cost", "benefit"),
        )
        n = normalize(p)
        assert n.experts[0][0][0] == PFV(0.3, 0.5)
        assert n.experts[0][0][1] == PFV(0.6, 0.4)


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

    def test_fused_center_and_radius_views(self, problem):
        result = solve(problem, "cpwa_q")
        for row, centers, radii in zip(
            result.circular_matrix, result.fused_centers(), result.fused_radii()
        ):
            assert tuple(v.center for v in row) == centers
            assert tuple(v.r for v in row) == radii

    def test_scores_non_increasing(self, problem):
        for operator in ("cpwa_q", "cpwg_p"):
            scores = solve(problem, operator).ranking.scores()
            assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_full_precision_mode_skips_quantization(self, problem):
        result = solve(problem, "cpwa_q", aggregate_precision=None)
        assert result.scored == result.aggregated

    def test_quantized_mode_scores_rounded_values(self, problem):
        result = solve(problem, "cpwa_q", aggregate_precision=2)
        assert result.scored != result.aggregated
        for v in result.scored:
            assert round(v.mu, 2) == v.mu

    def test_gens_override_matches_named_variant(self, problem):
        via_gens = solve(problem, "cpwa_q", gens=algebraic_pair("algebraic_p"))
        named = solve(problem, "cpwa_p")
        assert via_gens.similarities == named.similarities

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
                csm_to_ideal(aggregate("cpwa_q", row, problem.weights)) for row in rows
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

    def test_sweep_shape(self):
        rows = complexity_sweep(range(2, 5), range(2, 4), range(1, 3))
        assert len(rows) == 3 * 2 * 2
        assert rows[0] == (2, 2, 1, complexity_estimate(2, 2, 1))
