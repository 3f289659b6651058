import math

import pytest
from mpmath import mp, mpf

from cpfs import (
    CPFV,
    EmptyInput,
    InvalidWeights,
    LengthMismatch,
    UnknownOperator,
    WeightVector,
    add,
    algebraic_pair,
    cpwa,
    cpwg,
    make_operator,
    multiply,
    power,
    round_half_up,
    scalar_multiple,
)
from helpers import assert_cpfv_close, make_rng, sample_cpfv

mp.dps = 60

Q = algebraic_pair("algebraic_q")
P = algebraic_pair("algebraic_p")

CASE_WEIGHTS = WeightVector.of(0.2, 0.4, 0.1, 0.1, 0.2)


class TestWeightVector:
    def test_valid(self):
        assert len(CASE_WEIGHTS) == 5

    def test_sum_below_one_rejected(self):
        with pytest.raises(InvalidWeights):
            WeightVector.of(0.2, 0.4, 0.1, 0.1, 0.1)  # sums to 0.9

    def test_component_out_of_range(self):
        with pytest.raises(InvalidWeights):
            WeightVector.of(-0.1, 1.1)
        with pytest.raises(InvalidWeights):
            WeightVector.of(1.5, -0.5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidWeights):
            WeightVector(())

    @pytest.mark.parametrize(
        "weights", [("0.5", "0.5"), (True, False), (10**400, 0.0)], ids=["strings", "bools", "401 digits"]
    )
    def test_weights_must_be_real_numbers(self, weights):
        with pytest.raises(InvalidWeights, match=r"weights\[0\]"):
            WeightVector(weights)

    def test_no_silent_renormalisation(self):
        with pytest.raises(InvalidWeights):
            WeightVector.of(0.5, 0.6)

    def test_uniform(self):
        w = WeightVector.uniform(3)
        assert math.isclose(sum(w), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "n", [0, -1, 2.5, "3", 10**400, True], ids=["0", "-1", "2.5", "'3'", "10**400", "True"]
    )
    def test_uniform_length_follows_the_count_rule(self, n):
        with pytest.raises(InvalidWeights, match="must be an integer from 1 to"):
            WeightVector.uniform(n)


def _wprod(xs, ws):
    out = mpf(1)
    for x, w in zip(xs, ws):
        if w == 0.0:
            continue
        out *= mpf(x) ** mpf(w)
    return out


def oracle_cpwa(values, ws, radius_p=False):
    mu = mp.sqrt(1 - _wprod([1 - mpf(v.mu) ** 2 for v in values], ws))
    nu = _wprod([v.nu for v in values], ws)
    if radius_p:
        r = mp.sqrt(1 - _wprod([1 - mpf(v.r) ** 2 for v in values], ws))
    else:
        r = _wprod([v.r for v in values], ws)
    return (mu, nu, r)


def oracle_cpwg(values, ws, radius_p=False):
    mu = _wprod([v.mu for v in values], ws)
    nu = mp.sqrt(1 - _wprod([1 - mpf(v.nu) ** 2 for v in values], ws))
    if radius_p:
        r = mp.sqrt(1 - _wprod([1 - mpf(v.r) ** 2 for v in values], ws))
    else:
        r = _wprod([v.r for v in values], ws)
    return (mu, nu, r)


def assert_matches(out, oracle, tol=1e-12):
    for got, want, name in zip(out.as_tuple(), oracle, ("mu", "nu", "r")):
        assert abs(got - float(want)) <= tol, f"{name}: {got} vs {float(want)}"


class TestCpwa:
    def test_single_value_is_identity(self):
        v = CPFV(0.3, 0.7, 0.5)
        assert_cpfv_close(cpwa([v], WeightVector.of(1.0), Q), v)

    def test_idempotence(self):
        rng = make_rng(41)
        for _ in range(300):
            v = sample_cpfv(rng)
            w = [rng.random() for _ in range(4)]
            w = WeightVector(tuple(x / sum(w) for x in w))
            assert_cpfv_close(cpwa([v] * 4, w, Q), v)

    def test_two_decimal_anchor(self):
        # case-study row A2 of the fused table, rounded to two decimals
        row = [
            CPFV(0.67, 0.47, 0.08),
            CPFV(0.90, 0.20, 0.00),
            CPFV(0.80, 0.30, 0.20),
            CPFV(0.30, 0.54, 0.06),
            CPFV(0.42, 0.47, 0.18),
        ]
        out = cpwa(row, CASE_WEIGHTS, Q)
        assert (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r)) == (
            0.78,
            0.32,
            0.0,
        )

    def test_zero_radius_with_positive_weight_forces_zero(self):
        rng = make_rng(42)
        for _ in range(100):
            values = [sample_cpfv(rng) for _ in range(3)]
            values[1] = CPFV(values[1].mu, values[1].nu, 0.0)
            out = cpwa(values, WeightVector.uniform(3), Q)
            assert out.r == 0.0

    def test_all_zero_radii_degenerate_to_zero(self):
        rng = make_rng(43)
        values = [CPFV(v.mu, v.nu, 0.0) for v in (sample_cpfv(rng) for _ in range(4))]
        assert cpwa(values, WeightVector.uniform(4), Q).r == 0.0

    def test_weight_zero_component_is_ignored(self):
        a = CPFV(0.5, 0.5, 0.0)  # annihilating radius, but weight 0
        b = CPFV(0.6, 0.3, 0.4)
        out = cpwa([a, b], WeightVector.of(0.0, 1.0), Q)
        assert_cpfv_close(out, b)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            cpwa([], WeightVector.of(1.0), Q)
        with pytest.raises(LengthMismatch):
            cpwa([CPFV(0.5, 0.5, 0.5)], WeightVector.of(0.5, 0.5), Q)

    def test_matches_closed_form(self):
        rng = make_rng(44)
        for _ in range(500):
            n = rng.randint(1, 6)
            values = [sample_cpfv(rng) for _ in range(n)]
            raw = [rng.random() for _ in range(n)]
            ws = tuple(x / sum(raw) for x in raw)
            w = WeightVector(ws)
            assert_matches(cpwa(values, w, Q), oracle_cpwa(values, ws))
            assert_matches(cpwa(values, w, P), oracle_cpwa(values, ws, radius_p=True))

    def test_monotone_in_membership(self):
        rng = make_rng(45)
        for _ in range(300):
            values = [sample_cpfv(rng) for _ in range(3)]
            w = WeightVector.uniform(3)
            base = cpwa(values, w, Q)
            i = rng.randrange(3)
            v = values[i]
            cap = math.sqrt(max(0.0, 1.0 - v.nu * v.nu))
            bumped = CPFV(v.mu + (cap - v.mu) * 0.5, v.nu, v.r)
            values[i] = bumped
            assert cpwa(values, w, Q).mu >= base.mu - 1e-15

    def test_monotone_in_nonmembership(self):
        rng = make_rng(46)
        for _ in range(300):
            values = [sample_cpfv(rng) for _ in range(3)]
            w = WeightVector.uniform(3)
            base = cpwa(values, w, Q)
            i = rng.randrange(3)
            v = values[i]
            cap = math.sqrt(max(0.0, 1.0 - v.mu * v.mu))
            values[i] = CPFV(v.mu, v.nu + (cap - v.nu) * 0.5, v.r)
            assert cpwa(values, w, Q).nu >= base.nu - 1e-15


class TestCpwg:
    def test_single_value_is_identity(self):
        v = CPFV(0.3, 0.7, 0.5)
        assert_cpfv_close(cpwg([v], WeightVector.of(1.0), Q), v)

    def test_two_decimal_anchor(self):
        # case-study row A1 of the fused table, rounded to two decimals; the
        # reference radius for this row is 0.11, which its own inputs rederive
        # as 0.12 -- hence the loose radius comparison
        row = [
            CPFV(0.45, 0.83, 0.16),
            CPFV(0.73, 0.60, 0.07),
            CPFV(0.54, 0.77, 0.09),
            CPFV(0.38, 0.64, 0.19),
            CPFV(0.34, 0.60, 0.24),
        ]
        out = cpwg(row, CASE_WEIGHTS, Q)
        assert (round_half_up(out.mu), round_half_up(out.nu)) == (0.52, 0.69)
        assert abs(out.r - 0.11) <= 0.02

    def test_zero_membership_annihilates(self):
        values = [CPFV(0.0, 0.5, 0.5), CPFV(0.8, 0.1, 0.5)]
        assert cpwg(values, WeightVector.of(0.5, 0.5), Q).mu == 0.0

    def test_matches_closed_form(self):
        rng = make_rng(47)
        for _ in range(500):
            n = rng.randint(1, 6)
            values = [sample_cpfv(rng) for _ in range(n)]
            raw = [rng.random() for _ in range(n)]
            ws = tuple(x / sum(raw) for x in raw)
            w = WeightVector(ws)
            assert_matches(cpwg(values, w, Q), oracle_cpwg(values, ws))
            assert_matches(cpwg(values, w, P), oracle_cpwg(values, ws, radius_p=True))


class TestFoldEquivalence:
    """Aggregation equals the left fold of the pairwise operations."""

    def test_cpwa_is_the_fold_of_sums(self):
        rng = make_rng(48)
        for _ in range(500):
            n = rng.randint(2, 4)
            values = [sample_cpfv(rng) for _ in range(n)]
            raw = [rng.random() + 1e-3 for _ in range(n)]
            ws = tuple(x / sum(raw) for x in raw)
            folded = scalar_multiple(ws[0], values[0], Q)
            for v, w in zip(values[1:], ws[1:]):
                folded = add(folded, scalar_multiple(w, v, Q), Q)
            assert_cpfv_close(cpwa(values, WeightVector(ws), Q), folded)

    def test_cpwg_is_the_fold_of_products(self):
        rng = make_rng(49)
        for _ in range(500):
            n = rng.randint(2, 4)
            values = [sample_cpfv(rng) for _ in range(n)]
            raw = [rng.random() + 1e-3 for _ in range(n)]
            ws = tuple(x / sum(raw) for x in raw)
            folded = power(values[0], ws[0], Q)
            for v, w in zip(values[1:], ws[1:]):
                folded = multiply(folded, power(v, w, Q), Q)
            assert_cpfv_close(cpwg(values, WeightVector(ws), Q), folded)


class TestClosure:
    @pytest.mark.parametrize("pair", [Q, P], ids=["q", "p"])
    @pytest.mark.parametrize("fn", [cpwa, cpwg])
    def test_outputs_always_valid(self, fn, pair):
        rng = make_rng(50)
        for _ in range(1000):
            n = rng.randint(1, 5)
            values = [sample_cpfv(rng) for _ in range(n)]
            raw = [rng.random() for _ in range(n)]
            w = WeightVector(tuple(x / sum(raw) for x in raw))
            out = fn(values, w, pair)
            assert out.mu * out.mu + out.nu * out.nu <= 1.0 + 1e-9
            assert 0.0 <= out.r <= 1.0


class TestOperatorRegistry:
    def test_names_resolve(self):
        rng = make_rng(51)
        values = [sample_cpfv(rng) for _ in range(3)]
        w = WeightVector.uniform(3)
        assert make_operator("cpwa_q")(values, w) == cpwa(values, w, Q)
        assert make_operator("cpwa_p")(values, w) == cpwa(values, w, P)
        assert make_operator("cpwg_q")(values, w) == cpwg(values, w, Q)
        assert make_operator("cpwg_p")(values, w) == cpwg(values, w, P)

    def test_unknown_name(self):
        with pytest.raises(UnknownOperator):
            make_operator("cpwa_x")

    def test_gens_override(self):
        rng = make_rng(52)
        values = [sample_cpfv(rng) for _ in range(3)]
        w = WeightVector.uniform(3)
        assert make_operator("cpwa_q", P)(values, w) == cpwa(values, w, P)
