import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import (
    GeneratorPair,
    UnknownGenerator,
    algebraic_dual_generator,
    algebraic_generator,
    algebraic_pair,
    dual_tconorm,
    pythagorean_complement,
    tconorm_from_generator,
    tnorm_from_generator,
)
from helpers import make_rng

INF = math.inf


class TestAlgebraicGenerator:
    def test_boundaries(self):
        g = algebraic_generator()
        assert g.forward(1.0) == 0.0
        assert g.forward(0.0) == INF
        assert g.inverse(0.0) == 1.0
        assert g.inverse(INF) == 0.0

    def test_known_value(self):
        # -log(0.5**2) = -log(0.25)
        assert algebraic_generator().forward(0.5) == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_round_trip_on_grid(self):
        g = algebraic_generator()
        for i in range(1, 1001):
            t = i / 1000.0
            assert abs(g.inverse(g.forward(t)) - t) <= 1e-12

    def test_forward_then_inverse_on_finite_values(self):
        g = algebraic_generator()
        for s in [0.0, 1e-6, 0.1, 1.0, 5.0, 20.0, 100.0]:
            assert g.forward(g.inverse(s)) == pytest.approx(s, abs=1e-12, rel=1e-12)

    def test_strictly_decreasing(self):
        g = algebraic_generator()
        grid = [i / 200.0 for i in range(201)]
        vals = [g.forward(t) for t in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestAlgebraicDualGenerator:
    def test_boundaries(self):
        h = algebraic_dual_generator()
        assert h.forward(0.0) == 0.0
        assert h.forward(1.0) == INF
        assert h.inverse(0.0) == 0.0
        assert h.inverse(INF) == 1.0

    def test_known_value(self):
        # -log(1 - 0.6**2) = -log(0.64)
        assert algebraic_dual_generator().forward(0.6) == pytest.approx(0.4462871026284195, abs=1e-12)

    def test_round_trip(self):
        h = algebraic_dual_generator()
        assert abs(h.inverse(h.forward(0.37)) - 0.37) <= 1e-12
        for i in range(0, 1000):
            t = i / 1000.0
            assert abs(h.inverse(h.forward(t)) - t) <= 1e-12

    def test_forward_then_inverse_on_finite_values(self):
        h = algebraic_dual_generator()
        for s in [0.0, 1e-6, 0.1, 1.0, 5.0, 7.0]:
            assert h.forward(h.inverse(s)) == pytest.approx(s, abs=1e-12, rel=1e-12)

    def test_strictly_increasing(self):
        h = algebraic_dual_generator()
        grid = [i / 200.0 for i in range(201)]
        vals = [h.forward(t) for t in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))


# Both zeros, both ends, the smallest subnormal and the float just below one.
FORMULA_POINTS = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 0.5]


@settings(max_examples=300)
@given(
    st.one_of(st.sampled_from(FORMULA_POINTS), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from(FORMULA_POINTS), st.floats(0.0, 1.0)),
)
@example(0.0, 0.3)  # g(0) = inf
@example(1.0, 0.3)  # h(1) = inf
@example(0.0, 1.0)  # one infinite forward value on each side
@example(1.0, 1.0)  # g(1) = -0.0 twice
@example(5e-324, 1 - 2**-53)
def test_induced_operations_are_the_written_out_formula(x, y):
    """Compared as ``float.hex``, so the sign of ``-0.0`` counts."""
    g, h = algebraic_generator(), algebraic_dual_generator()
    for op, gen in ((tnorm_from_generator(g), g), (tconorm_from_generator(h), h)):
        assert op(x, y).hex() == gen.inverse(gen.forward(x) + gen.forward(y)).hex()


class TestComplement:
    def test_boundaries(self):
        assert pythagorean_complement(0.0) == 1.0
        assert pythagorean_complement(1.0) == 0.0

    def test_three_four_five(self):
        assert pythagorean_complement(0.6) == pytest.approx(0.8, abs=1e-15)

    def test_involution_and_monotonicity(self):
        rng = make_rng(11)
        prev_in, prev_out = -1.0, 2.0
        for a in sorted(rng.random() for _ in range(2000)):
            assert abs(pythagorean_complement(pythagorean_complement(a)) - a) <= 1e-12
            out = pythagorean_complement(a)
            assert a >= prev_in and out <= prev_out  # decreasing
            prev_in, prev_out = a, out


class TestInducedOperations:
    def test_tnorm_is_the_product(self):
        T = tnorm_from_generator(algebraic_generator())
        assert T(0.5, 0.4) == pytest.approx(0.2, abs=1e-15)
        rng = make_rng(12)
        for _ in range(500):
            x, y = rng.random(), rng.random()
            assert T(x, y) == pytest.approx(x * y, abs=1e-14)

    def test_tnorm_border_and_annihilator(self):
        T = tnorm_from_generator(algebraic_generator())
        rng = make_rng(13)
        for _ in range(200):
            x = rng.random()
            assert T(x, 1.0) == pytest.approx(x, abs=1e-13)
            assert T(0.0, x) == 0.0

    def test_dual_tconorm_closed_form(self):
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        assert S(0.6, 0.8) == pytest.approx(0.8772684879784524, abs=1e-12)
        rng = make_rng(14)
        for _ in range(500):
            x, y = rng.random(), rng.random()
            xx, yy = x * x, y * y
            assert S(x, y) == pytest.approx(math.sqrt(xx + yy - xx * yy), abs=1e-12)

    def test_tconorm_border_and_annihilator(self):
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        rng = make_rng(15)
        for _ in range(200):
            x = rng.random()
            assert S(x, 0.0) == pytest.approx(x, abs=1e-13)
            assert S(x, 1.0) == 1.0

    def test_increasing_generator_induces_the_same_tconorm(self):
        S_dual = dual_tconorm(tnorm_from_generator(algebraic_generator()))
        S_gen = tconorm_from_generator(algebraic_dual_generator())
        rng = make_rng(16)
        for _ in range(500):
            x, y = rng.random(), rng.random()
            assert abs(S_dual(x, y) - S_gen(x, y)) <= 1e-12

    def test_duality_both_ways_on_grid(self):
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        N = pythagorean_complement
        for i in range(101):
            for j in range(101):
                x, y = i / 100.0, j / 100.0
                assert abs(S(x, y) - N(T(N(x), N(y)))) <= 1e-12
                assert abs(T(x, y) - N(S(N(x), N(y)))) <= 1e-12

    def test_archimedean_property(self):
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        for i in range(1, 100):
            x = i / 100.0
            assert T(x, x) < x
            assert S(x, x) > x

    def test_axioms_on_random_triples(self):
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        rng = make_rng(17)
        for _ in range(1000):
            x, y, z = rng.random(), rng.random(), rng.random()
            assert T(x, y) == T(y, x)
            assert S(x, y) == S(y, x)
            assert abs(T(x, T(y, z)) - T(T(x, y), z)) <= 1e-12
            assert abs(S(x, S(y, z)) - S(S(x, y), z)) <= 1e-12
            lo, hi = sorted((x, z))
            assert T(lo, y) <= T(hi, y) + 1e-15
            assert S(lo, y) <= S(hi, y) + 1e-15

    def test_kind_checks(self):
        with pytest.raises(ValueError):
            tnorm_from_generator(algebraic_dual_generator())
        with pytest.raises(ValueError):
            tconorm_from_generator(algebraic_generator())


class TestGeneratorPair:
    def test_pair_relations(self):
        pair = algebraic_pair()
        g, h = pair.g, pair.h
        for i in range(1000):
            t = i / 1000.0
            assert abs(h.forward(t) - g.forward(math.sqrt(1.0 - t * t))) <= 1e-12
        for s in [0.0, 0.01, 0.5, 1.0, 3.0, 10.0]:
            v = g.inverse(s)
            assert abs(h.inverse(s) - math.sqrt(1.0 - v * v)) <= 1e-12

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            GeneratorPair(g=algebraic_dual_generator(), h=algebraic_dual_generator(), q=algebraic_generator())
        with pytest.raises(ValueError):
            GeneratorPair(g=algebraic_generator(), h=algebraic_generator(), q=algebraic_generator())


class TestRadiusGenerators:
    def test_registry(self):
        # a built-in pair's radius generator is its own g or h
        for pair in (algebraic_pair(), algebraic_pair("algebraic_q")):
            assert pair.q is pair.g
        pair = algebraic_pair("algebraic_p")
        assert pair.q is pair.h

    def test_unknown_name(self):
        expected = r"^unknown radius generator 'hamacher_q'; expected one of \('algebraic_q', 'algebraic_p'\)$"
        with pytest.raises(UnknownGenerator, match=expected):
            algebraic_pair("hamacher_q")

    def test_pair_selection(self):
        assert algebraic_pair("algebraic_q").q.increasing is False
        assert algebraic_pair("algebraic_p").q.increasing is True
