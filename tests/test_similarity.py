import math

import pytest
from hypothesis import given, strategies as st

from cpfs import CPFV, IDEAL, DegenerateCenter, csm, csm_to_ideal
from helpers import make_rng, sample_cpfv


class TestCsm:
    def test_reflexivity_is_exact(self):
        rng = make_rng(71)
        for _ in range(2000):
            v = sample_cpfv(rng)
            if v.mu == 0.0 and v.nu == 0.0:
                continue
            assert csm(v, v) == 1.0

    def test_symmetry_is_exact(self):
        rng = make_rng(72)
        for _ in range(2000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            if (a.mu == 0.0 and a.nu == 0.0) or (b.mu == 0.0 and b.nu == 0.0):
                continue
            assert csm(a, b) == csm(b, a)

    def test_orthogonal_centers_equal_radii(self):
        assert csm(CPFV(1, 0, 1), CPFV(0, 1, 1)) == 0.5

    def test_range(self):
        rng = make_rng(73)
        for _ in range(5000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            if (a.mu == 0.0 and a.nu == 0.0) or (b.mu == 0.0 and b.nu == 0.0):
                continue
            assert 0.0 <= csm(a, b) <= 1.0

    def test_degenerate_center_rejected(self):
        with pytest.raises(DegenerateCenter):
            csm(CPFV(0.0, 0.0, 0.5), CPFV(0.5, 0.5, 0.5))
        with pytest.raises(DegenerateCenter):
            csm(CPFV(0.5, 0.5, 0.5), CPFV(0.0, 0.0, 0.5))

    def test_known_value_against_the_ideal(self):
        # cos = 0.66**2 / hypot(0.66**2, 0.43**2); radius term 1 - |0.18 - 1|
        got = csm(CPFV(0.66, 0.43, 0.18), IDEAL)
        assert got == pytest.approx(0.5502528941338231, abs=1e-12)
        assert abs(got - 0.555) <= 0.01  # two-decimal reference agreement

    def test_cosine_term_is_scale_invariant(self):
        # scaling the squared components leaves the angle unchanged; with
        # equal radii the cosine term is 2*csm - 1
        rng = make_rng(74)
        for _ in range(1000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            if (a.mu == 0.0 and a.nu == 0.0) or (b.mu == 0.0 and b.nu == 0.0):
                continue
            a, b = CPFV(a.mu, a.nu, 0.5), CPFV(b.mu, b.nu, 0.5)
            c = rng.uniform(0.1, 1.0)
            scaled = CPFV(math.sqrt(c) * a.mu, math.sqrt(c) * a.nu, 0.5)
            assert abs(csm(a, b) - csm(scaled, b)) <= 1e-12

    def test_proportional_squared_centers_also_score_one(self):
        # the converse of "equal implies similarity 1" does not hold
        a = CPFV(0.6, 0.6, 0.3)
        b = CPFV(0.3, 0.3, 0.3)
        assert csm(a, b) == pytest.approx(1.0, abs=1e-12)


class TestCsmToIdeal:
    def test_ideal_scores_one(self):
        assert csm_to_ideal(IDEAL) == 1.0

    def test_matches_pairwise_call(self):
        rng = make_rng(75)
        for _ in range(500):
            v = sample_cpfv(rng)
            if v.mu == 0.0 and v.nu == 0.0:
                continue
            assert csm_to_ideal(v) == csm(v, IDEAL)

    def test_reference_row_values(self):
        # aggregated case-study rows at two decimals; direct evaluation
        assert csm_to_ideal(CPFV(0.78, 0.32, 0.0)) == pytest.approx(0.493, abs=0.01)
        assert csm_to_ideal(CPFV(0.59, 0.66, 0.11)) == pytest.approx(
            0.36713970863890405, abs=1e-12
        )

    def test_degenerate_center_rejected(self):
        with pytest.raises(DegenerateCenter):
            csm_to_ideal(CPFV(0.0, 0.0, 1.0))


@st.composite
def nondegenerate_cpfvs(draw):
    mu = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    cap = math.sqrt(max(0.0, 1.0 - mu * mu))
    nu = draw(st.floats(min_value=0.0, max_value=cap, allow_nan=False)) if cap > 0.0 else 0.0
    r = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return CPFV(mu, nu, r)


@given(nondegenerate_cpfvs(), nondegenerate_cpfvs())
def test_similarity_is_symmetric_and_bounded(a, b):
    s = csm(a, b)
    assert s == csm(b, a)
    assert 0.0 <= s <= 1.0


@given(nondegenerate_cpfvs())
def test_self_similarity_is_one(v):
    assert csm(v, v) == 1.0
