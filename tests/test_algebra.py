import math

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from cpfs import (
    CPFV,
    DomainError,
    NonPositiveScalar,
    add,
    add_general,
    add_minmax,
    algebraic_pair,
    multiply,
    multiply_general,
    multiply_minmax,
    power,
    scalar_multiple,
    tnorm_from_generator,
    algebraic_generator,
)
from helpers import assert_cpfv_close, make_rng, sample_cpfv

mp.dps = 60

Q = algebraic_pair("algebraic_q")
P = algebraic_pair("algebraic_p")

A = CPFV(0.6, 0.5, 0.2)
B = CPFV(0.8, 0.3, 0.4)

# Closed-form oracles, evaluated in 60-digit arithmetic so that comparisons
# against the float implementation are against the true value, not against a
# second source of rounding (the naive float closed forms cancel badly near
# the boundaries).


def _dual_sum(x, y):
    x, y = mpf(x), mpf(y)
    return mp.sqrt(x**2 + y**2 - x**2 * y**2)


def _shrink(x, lam):
    # sqrt(1 - (1 - x**2)**lam)
    x = mpf(x)
    return mp.sqrt(1 - (1 - x**2) ** mpf(lam))


def closed_add(a, b, radius_p=False):
    r = _dual_sum(a.r, b.r) if radius_p else mpf(a.r) * mpf(b.r)
    return (_dual_sum(a.mu, b.mu), mpf(a.nu) * mpf(b.nu), r)


def closed_multiply(a, b, radius_p=False):
    r = _dual_sum(a.r, b.r) if radius_p else mpf(a.r) * mpf(b.r)
    return (mpf(a.mu) * mpf(b.mu), _dual_sum(a.nu, b.nu), r)


def closed_scalar(lam, a, radius_p=False):
    r = _shrink(a.r, lam) if radius_p else mpf(a.r) ** mpf(lam)
    return (_shrink(a.mu, lam), mpf(a.nu) ** mpf(lam), r)


def closed_power(a, lam, radius_p=False):
    r = _shrink(a.r, lam) if radius_p else mpf(a.r) ** mpf(lam)
    return (mpf(a.mu) ** mpf(lam), _shrink(a.nu, lam), r)


def assert_matches_oracle(out: CPFV, oracle, tol: float = 1e-12) -> None:
    for got, want, name in zip(out.as_tuple(), oracle, ("mu", "nu", "r")):
        assert abs(got - float(want)) <= tol, f"{name}: {got} vs {float(want)}"


class TestAdd:
    def test_known_sum(self):
        # closed form: sqrt(0.36 + 0.64 - 0.2304), 0.5*0.3, 0.2*0.4
        out = add(A, B, Q)
        assert out.mu == pytest.approx(0.8772684879784524, abs=1e-12)
        assert out.nu == pytest.approx(0.15, abs=1e-12)
        assert out.r == pytest.approx(0.08, abs=1e-12)

    def test_dual_radius_variant(self):
        # sqrt(0.04 + 0.16 - 0.0064) = sqrt(0.1936) = 0.44
        out = add(A, B, P)
        assert out.mu == pytest.approx(0.8772684879784524, abs=1e-12)
        assert out.r == pytest.approx(0.44, abs=1e-12)

    def test_neutral_element(self):
        rng = make_rng(21)
        zero = CPFV(0.0, 1.0, 1.0)
        for _ in range(200):
            a = sample_cpfv(rng)
            assert_cpfv_close(add(zero, a, Q), a)

    def test_matches_closed_form_on_random_pairs(self):
        rng = make_rng(22)
        for _ in range(2000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            assert_matches_oracle(add(a, b, Q), closed_add(a, b))
            assert_matches_oracle(add(a, b, P), closed_add(a, b, radius_p=True))


class TestMultiply:
    def test_known_product(self):
        out = multiply(A, B, Q)
        assert out.mu == pytest.approx(0.48, abs=1e-12)
        assert out.nu == pytest.approx(0.5634713834792322, abs=1e-12)
        assert out.r == pytest.approx(0.08, abs=1e-12)

    def test_neutral_element(self):
        rng = make_rng(23)
        one = CPFV(1.0, 0.0, 1.0)
        for _ in range(200):
            a = sample_cpfv(rng)
            assert_cpfv_close(multiply(one, a, Q), a)

    def test_zero_membership_annihilates(self):
        out = multiply(CPFV(0.0, 0.7, 0.5), B, Q)
        assert out.mu == 0.0

    def test_matches_closed_form_on_random_pairs(self):
        rng = make_rng(24)
        for _ in range(2000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            assert_matches_oracle(multiply(a, b, Q), closed_multiply(a, b))
            assert_matches_oracle(multiply(a, b, P), closed_multiply(a, b, radius_p=True))


class TestScalarMultiple:
    def test_identity(self):
        assert_cpfv_close(scalar_multiple(1.0, A, Q), A)

    def test_known_double(self):
        # sqrt(1 - 0.64**2), 0.5**2, 0.2**2
        out = scalar_multiple(2.0, A, Q)
        assert out.mu == pytest.approx(0.7683749084919419, abs=1e-12)
        assert out.nu == pytest.approx(0.25, abs=1e-12)
        assert out.r == pytest.approx(0.04, abs=1e-12)

    def test_composition_is_identity(self):
        rng = make_rng(25)
        for _ in range(500):
            a = sample_cpfv(rng)
            assert_cpfv_close(scalar_multiple(2.0, scalar_multiple(0.5, a, Q), Q), a)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, lam):
        with pytest.raises(NonPositiveScalar):
            scalar_multiple(lam, A, Q)

    def test_matches_closed_form(self):
        rng = make_rng(26)
        for _ in range(2000):
            a, lam = sample_cpfv(rng), rng.uniform(1e-3, 10.0)
            assert_matches_oracle(scalar_multiple(lam, a, Q), closed_scalar(lam, a))
            assert_matches_oracle(scalar_multiple(lam, a, P), closed_scalar(lam, a, radius_p=True))


class TestPower:
    def test_identity(self):
        assert_cpfv_close(power(A, 1.0, Q), A)

    def test_known_square(self):
        out = power(A, 2.0, Q)
        assert out.mu == pytest.approx(0.36, abs=1e-12)
        assert out.nu == pytest.approx(0.6614378277661477, abs=1e-12)
        assert out.r == pytest.approx(0.04, abs=1e-12)

    def test_fixed_point(self):
        one = CPFV(1.0, 0.0, 1.0)
        assert_cpfv_close(power(one, 3.0, Q), one)

    @pytest.mark.parametrize("lam", [0.0, -2.5])
    def test_rejects_non_positive(self, lam):
        with pytest.raises(NonPositiveScalar):
            power(A, lam, Q)

    def test_matches_closed_form(self):
        rng = make_rng(27)
        for _ in range(2000):
            a, lam = sample_cpfv(rng), rng.uniform(1e-3, 10.0)
            assert_matches_oracle(power(a, lam, Q), closed_power(a, lam))
            assert_matches_oracle(power(a, lam, P), closed_power(a, lam, radius_p=True))


class TestMinMaxVariants:
    def test_known_sum_min(self):
        out = add_minmax(A, B, "min")
        assert out.mu == pytest.approx(0.8772684879784524, abs=1e-12)
        assert out.nu == pytest.approx(0.15, abs=1e-12)
        assert out.r == 0.2

    def test_known_sum_max(self):
        assert add_minmax(A, B, "max").r == 0.4

    def test_self_sum_keeps_radius(self):
        assert add_minmax(A, A, "min").r == A.r

    def test_known_product_max(self):
        out = multiply_minmax(A, B, "max")
        assert out.mu == pytest.approx(0.48, abs=1e-12)
        assert out.nu == pytest.approx(0.5634713834792322, abs=1e-12)
        assert out.r == 0.4

    def test_full_membership_product(self):
        out = multiply_minmax(CPFV(1, 0, 0.3), CPFV(1, 0, 0.7), "min")
        assert out.as_tuple() == (1.0, 0.0, 0.3)

    @pytest.mark.parametrize("op", [add_minmax, multiply_minmax])
    @pytest.mark.parametrize("mode", ["bogus", "avg", "MIN", None])
    def test_bad_mode(self, op, mode):
        with pytest.raises(DomainError):
            op(A, B, mode)

    @pytest.mark.parametrize(
        "x, y", [(1e-9, 2e-9), (1e-9, 0.0), (3e-10, 7e-9), (1e-12, 1e-12), (5e-9, 5e-9)]
    )
    def test_sum_keeps_tiny_memberships(self, x, y):
        # add_general's dual t-conorm passes through sqrt(1 - x**2), which is
        # exactly 1.0 here, and returns 0; the closed form keeps the value.
        out = add_minmax(CPFV(x, 0.5, 0.2), CPFV(y, 0.5, 0.3))
        want = _dual_sum(x, y)
        assert abs(mpf(out.mu) - want) <= 4 * mpf(2) ** -52 * want

    def test_commutativity(self):
        rng = make_rng(28)
        for _ in range(500):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            for mode in ("min", "max"):
                assert add_minmax(a, b, mode) == add_minmax(b, a, mode)
                assert multiply_minmax(a, b, mode) == multiply_minmax(b, a, mode)


class TestGeneralOperations:
    def test_product_tnorm_with_min_radius_matches_minmax(self):
        T = lambda x, y: x * y  # noqa: E731
        rng = make_rng(29)
        for _ in range(1000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            assert_cpfv_close(add_general(a, b, T, min), add_minmax(a, b, "min"))
            assert_cpfv_close(multiply_general(a, b, T, max), multiply_minmax(a, b, "max"))

    def test_product_tnorm_with_product_radius_matches_generator_form(self):
        T = lambda x, y: x * y  # noqa: E731
        prod = lambda x, y: x * y  # noqa: E731
        rng = make_rng(30)
        for _ in range(10_000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            assert_cpfv_close(add_general(a, b, T, prod), add(a, b, Q))
            assert_cpfv_close(multiply_general(a, b, T, prod), multiply(a, b, Q))

    def test_neutral_element_with_max_radius(self):
        T = lambda x, y: x * y  # noqa: E731
        zero = CPFV(0.0, 1.0, 0.0)
        rng = make_rng(31)
        for _ in range(200):
            b = sample_cpfv(rng)
            assert_cpfv_close(add_general(zero, b, T, max), b)

    def test_generator_built_tnorm_is_accepted(self):
        T = tnorm_from_generator(algebraic_generator())
        out = add_general(A, B, T, min)
        assert_cpfv_close(out, add_minmax(A, B, "min"), tol=1e-12)

    def test_constraint_inequality_holds(self):
        # T(mu_a, mu_b)**2 + S(nu_a, nu_b)**2 <= 1 for the product family
        rng = make_rng(32)
        for _ in range(5000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            t = a.mu * b.mu
            s2 = a.nu**2 + b.nu**2 - a.nu**2 * b.nu**2
            assert t * t + s2 <= 1.0 + 1e-12


class TestAlgebraicLaws:
    """Commutativity, associativity and the scalar/power distribution laws."""

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_commutativity_exact(self, pair):
        rng = make_rng(33)
        for _ in range(1000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            assert add(a, b, pair) == add(b, a, pair)
            assert multiply(a, b, pair) == multiply(b, a, pair)

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_associativity(self, pair):
        rng = make_rng(34)
        for _ in range(1000):
            a, b, c = sample_cpfv(rng), sample_cpfv(rng), sample_cpfv(rng)
            assert_cpfv_close(add(add(a, b, pair), c, pair), add(a, add(b, c, pair), pair))
            assert_cpfv_close(
                multiply(multiply(a, b, pair), c, pair), multiply(a, multiply(b, c, pair), pair)
            )

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_scalar_distributes_over_sum(self, pair):
        rng = make_rng(35)
        for _ in range(1000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            lam = rng.uniform(1e-3, 5.0)
            assert_cpfv_close(
                scalar_multiple(lam, add(a, b, pair), pair),
                add(scalar_multiple(lam, a, pair), scalar_multiple(lam, b, pair), pair),
            )

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_scalar_sum_splits(self, pair):
        rng = make_rng(36)
        for _ in range(1000):
            a = sample_cpfv(rng)
            lam, gam = rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0)
            assert_cpfv_close(
                scalar_multiple(lam + gam, a, pair),
                add(scalar_multiple(lam, a, pair), scalar_multiple(gam, a, pair), pair),
            )

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_power_distributes_over_product(self, pair):
        rng = make_rng(37)
        for _ in range(1000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            lam = rng.uniform(1e-3, 5.0)
            assert_cpfv_close(
                power(multiply(a, b, pair), lam, pair),
                multiply(power(a, lam, pair), power(b, lam, pair), pair),
            )

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_power_exponents_add(self, pair):
        rng = make_rng(38)
        for _ in range(1000):
            a = sample_cpfv(rng)
            lam, gam = rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0)
            assert_cpfv_close(
                multiply(power(a, lam, pair), power(a, gam, pair), pair),
                power(a, lam + gam, pair),
            )

    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    def test_closure_under_everything(self, pair):
        # constructors validate, so surviving without an exception is the assertion
        rng = make_rng(39)
        for _ in range(2000):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            lam = rng.uniform(1e-6, 10.0)
            add(a, b, pair)
            multiply(a, b, pair)
            scalar_multiple(lam, a, pair)
            power(a, lam, pair)
            add_minmax(a, b, "min")
            multiply_minmax(a, b, "max")


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cpfv_values(draw):
    mu = draw(unit)
    cap = math.sqrt(max(0.0, 1.0 - mu * mu))
    nu = draw(st.floats(min_value=0.0, max_value=cap, allow_nan=False)) if cap > 0.0 else 0.0
    return CPFV(mu, nu, draw(unit))


@given(cpfv_values(), cpfv_values())
def test_sum_is_commutative(a, b):
    assert add(a, b, Q) == add(b, a, Q)


@given(cpfv_values(), cpfv_values())
def test_product_never_leaves_the_constraint_region(a, b):
    out = multiply(a, b, Q)
    assert out.center.quadratic_sum <= 1.0 + 1e-9
