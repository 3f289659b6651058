import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import (
    PFV,
    DecisionProblem,
    DimensionMismatch,
    EmptyInput,
    WeightVector,
    build_circular_matrix,
    fuse,
    round_half_up,
)
from cpfs.fusion import CircularMatrix
from cpfs.values import CPFVRow
from helpers import make_rng, point_values, problems, reference_fuse, sample_pfv


def pfvs(*pairs):
    return [PFV(mu, nu) for mu, nu in pairs]


class TestFuse:
    def test_four_expert_collection(self):
        out = fuse(pfvs((0.3, 0.8), (0.4, 0.6), (0.5, 0.7), (0.4, 0.8)))
        assert (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r)) == (
            0.41,
            0.73,
            0.13,
        )

    def test_low_membership_collection(self):
        out = fuse(pfvs((0.2, 0.3), (0.1, 0.4), (0.2, 0.5), (0.1, 0.6)))
        assert (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r)) == (
            0.16,
            0.46,
            0.17,
        )

    def test_high_membership_collection(self):
        out = fuse(pfvs((0.9, 0.2), (0.8, 0.3), (0.8, 0.2), (0.7, 0.5)))
        assert (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r)) == (
            0.80,
            0.32,
            0.20,
        )

    def test_three_expert_anchor(self):
        # quadratic-mean center (0.45, 0.83) with max distance 0.16
        out = fuse(pfvs((0.4, 0.8), (0.3, 0.9), (0.6, 0.8)))
        assert (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r)) == (
            0.45,
            0.83,
            0.16,
        )

    def test_singleton_has_zero_radius(self):
        out = fuse(pfvs((0.37, 0.81)))
        assert out.mu == pytest.approx(0.37, abs=1e-15)
        assert out.nu == pytest.approx(0.81, abs=1e-15)
        assert out.r == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            fuse([])

    def test_center_is_always_valid(self):
        rng = make_rng(61)
        for _ in range(2000):
            collection = [sample_pfv(rng) for _ in range(rng.randint(1, 8))]
            out = fuse(collection)
            assert out.center.quadratic_sum <= 1.0 + 1e-9
            assert 0.0 <= out.r <= 1.0

    def test_every_input_inside_the_circle(self):
        rng = make_rng(62)
        for _ in range(2000):
            collection = [sample_pfv(rng) for _ in range(rng.randint(1, 8))]
            out = fuse(collection)
            if out.r < 1.0:  # clamp inactive
                for p in collection:
                    assert math.hypot(out.mu - p.mu, out.nu - p.nu) <= out.r + 1e-12

    def test_permutation_invariance(self):
        rng = make_rng(63)
        for _ in range(500):
            collection = [sample_pfv(rng) for _ in range(5)]
            shuffled = collection[:]
            rng.shuffle(shuffled)
            assert fuse(collection) == fuse(shuffled)


def problem_of(*matrices):
    """The problem whose expert matrices are ``matrices``; labels and weights are filler."""
    n, k = len(matrices[0]), len(matrices[0][0])
    return DecisionProblem(
        tuple(f"A{i}" for i in range(n)), tuple(f"C{j}" for j in range(k)),
        ("benefit",) * k, WeightVector.uniform(k), matrices,
    )


class TestBuildCircularMatrix:
    def test_cellwise_fusion(self):
        e1 = [pfvs((0.4, 0.8), (0.8, 0.6)), pfvs((0.7, 0.5), (0.9, 0.2))]
        e2 = [pfvs((0.3, 0.9), (0.7, 0.6)), pfvs((0.7, 0.4), (0.9, 0.2))]
        out = build_circular_matrix(problem_of(e1, e2))
        assert len(out) == 2 and len(out[0]) == 2
        expected = fuse([e1[0][0], e2[0][0]])
        assert out[0][0] == expected

    def test_known_cell_radius(self):
        # one cell of the case study: three expert opinions spread widely
        cell = pfvs((0.6, 0.4), (0.4, 0.4), (0.2, 0.9))
        out = build_circular_matrix(problem_of(*([[c]] for c in cell)))
        assert round_half_up(out[0][0].r) == 0.37
        assert out[0][0] == fuse(cell)

    def test_single_expert_radii_are_zero(self):
        e1 = [pfvs((0.4, 0.8), (0.8, 0.6)), pfvs((0.7, 0.5), (0.9, 0.2))]
        out = build_circular_matrix(problem_of(e1))
        assert all(v.r == 0.0 for row in out for v in row)

    # the shape checks live in DecisionProblem, so bad matrices never reach the fusion
    def test_shape_mismatch_rejected(self):
        e1 = [pfvs((0.4, 0.8), (0.8, 0.6))]
        e2 = [pfvs((0.3, 0.9), (0.7, 0.6)), pfvs((0.7, 0.4), (0.9, 0.2))]
        with pytest.raises(DimensionMismatch):
            build_circular_matrix(problem_of(e1, e2))

    def test_ragged_matrix_rejected(self):
        bad = [pfvs((0.4, 0.8), (0.8, 0.6)), pfvs((0.7, 0.5))]
        with pytest.raises(DimensionMismatch):
            build_circular_matrix(problem_of(bad))


# The column kernel against the per-cell formula it replaced, compared as
# ``float.hex`` so the sign of ``-0.0`` counts.


def hexed(v):
    return tuple(x.hex() for x in v.as_tuple())


ONE_EXPERT = pfvs((0.37, 0.81))
CLAMPED = pfvs(*[(0.0, 1.0)] * 9, (1.0, 0.0))  # the radius 1.17 is clamped to 1
TINY = pfvs((-0.0, 5e-324), (5e-324, -0.0), (0.0, 0.0))


def test_the_clamp_example_is_clamped():
    out = fuse(CLAMPED)
    assert out.r == 1.0 and math.hypot(out.mu - 1.0, out.nu) > 1.0


@settings(max_examples=300)
@example(ONE_EXPERT)
@example(CLAMPED)
@example(TINY)
@given(st.lists(point_values, min_size=1, max_size=12))
def test_fuse_equals_the_per_cell_formula(points):
    assert hexed(fuse(points)) == hexed(reference_fuse(points))


@settings(max_examples=200)
@example(problem_of([ONE_EXPERT]))
@example(problem_of(*([[p, q]] for p, q in zip(CLAMPED, reversed(CLAMPED)))))
@example(problem_of(*([[p], [q]] for p, q in zip(TINY, reversed(TINY)))))
@given(problems(max_experts=12))
def test_build_circular_matrix_equals_the_per_cell_formula(problem):
    experts = problem.experts
    out = build_circular_matrix(problem)
    assert type(out) is CircularMatrix and all(type(row) is CPFVRow for row in out)
    want = [[hexed(reference_fuse([matrix[i][j] for matrix in experts])) for j in range(len(row))]
            for i, row in enumerate(experts[0])]
    assert [[hexed(v) for v in row] for row in out] == want
