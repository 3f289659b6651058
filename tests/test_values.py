import dataclasses
import math
import pickle

import numpy
import pytest
from hypothesis import given, strategies as st

from cpfs import (
    CPFS,
    CPFV,
    PFV,
    ConstraintViolation,
    DomainError,
    OutOfRange,
    RadiusOutOfRange,
    UniverseMismatch,
    complement,
    equal,
    intersect,
    subset,
    union,
)
from cpfs.values import _require_component
from helpers import grow, make_rng, sample_cpfv


def set_a():
    # three elements, radius 0.2 everywhere
    return CPFS.from_components(
        [("x1", 0.3, 0.8, 0.2), ("x2", 0.1, 0.9, 0.2), ("x3", 0.5, 0.6, 0.2)]
    )


def set_b():
    return CPFS.from_components(
        [("x1", 0.7, 0.5, 0.6), ("x2", 0.2, 0.5, 0.6), ("x3", 0.6, 0.3, 0.6)]
    )


class TestValidatePfv:
    def test_boundary_pair_is_accepted(self):
        v = PFV(0.8, 0.6)
        assert v.quadratic_sum == pytest.approx(1.0, abs=1e-15)

    def test_zero_pair_is_accepted(self):
        assert PFV(0.0, 0.0) == PFV(0.0, 0.0)

    def test_quadratic_violation(self):
        with pytest.raises(ConstraintViolation):
            PFV(0.9, 0.9)

    @pytest.mark.parametrize("mu,nu", [(-0.1, 0.5), (1.1, 0.0), (0.5, -0.01), (0.0, 1.5)])
    def test_component_out_of_range(self, mu, nu):
        with pytest.raises(OutOfRange):
            PFV(mu, nu)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(OutOfRange):
            PFV(bad, 0.1)

    def test_slack_admits_parsing_dust_only(self):
        PFV(0.6, 0.8000000000001)  # sum ~ 1 + 1.6e-13
        with pytest.raises(ConstraintViolation):
            PFV(0.6, 0.80000008)  # sum ~ 1 + 1.3e-7


class TestValidateCpfv:
    def test_example_triple(self):
        v = CPFV(0.3, 0.8, 0.2)
        assert v.as_tuple() == (0.3, 0.8, 0.2)

    def test_ideal_is_valid(self):
        assert CPFV(1.0, 0.0, 1.0).r == 1.0

    @pytest.mark.parametrize("r", [1.2, -0.1, float("nan"), float("inf")])
    def test_radius_out_of_range(self, r):
        with pytest.raises(RadiusOutOfRange):
            CPFV(0.5, 0.5, r)

    def test_center_errors_still_raised(self):
        with pytest.raises(ConstraintViolation):
            CPFV(0.9, 0.9, 0.5)


class TestCpfvInit:
    """``CPFV``'s constructor keeps the dataclass behaviour."""

    def test_calls_the_class_post_init_once(self, monkeypatch):
        calls = []
        post_init = vars(CPFV)["__post_init__"]

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(CPFV, "__post_init__", counting)
        v = CPFV(0.5, 0.5, 0.25)
        assert len(calls) == 1 and calls[0] is v

    def test_keywords_replace_pickle_eq_and_hash(self):
        v = CPFV(r=0.25, nu=0, mu=0.5)
        assert v.as_tuple() == (0.5, 0.0, 0.25) and type(v.nu) is float
        w = dataclasses.replace(v, r=1)
        assert w == CPFV(0.5, 0.0, 1.0) and type(w.r) is float
        with pytest.raises(RadiusOutOfRange):
            dataclasses.replace(v, r=2.0)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(v, protocol))
            assert again == v and hash(again) == hash(v) and again is not v
        assert hash(CPFV(0.5, 0.0, 0.25)) == hash(v) and v != w
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.mu = 0.1

    @pytest.mark.parametrize("args, error, message", [
        ((True, 0.0, 0.0), OutOfRange, "mu must be a real number, got True"),
        ((0.0, False, 0.0), OutOfRange, "nu must be a real number, got False"),
        ((0.0, 0.0, True), RadiusOutOfRange, "radius must be a real number, got True"),
        ((math.nan, 0.0, 0.0), OutOfRange, "mu must be finite, got nan"),
        ((0.0, 0.0, math.nan), RadiusOutOfRange, "radius must be finite, got nan"),
        ((0.5, 0.5, 1.5), RadiusOutOfRange, "radius must lie in [0, 1], got 1.5"),
        ((0.5, 0.5, -0.25), RadiusOutOfRange, "radius must lie in [0, 1], got -0.25"),
    ])
    def test_errors_keep_their_types_and_messages(self, args, error, message):
        with pytest.raises(error) as info:
            CPFV(*args)
        assert type(info.value) is error and str(info.value) == message


class FloatSub(float):
    pass


def checked_component(x):
    """What a component check stores for ``x``; ``None`` if it rejects it.

    The radius check applies the same rule with its own error class.
    """
    try:
        return _require_component(x, "x")
    except OutOfRange:
        return None


def assert_checked_as_before(x):
    expected = checked_component(x)
    for build, stored, error in (
        (lambda: PFV(x, 0.0), lambda v: v.mu, OutOfRange),
        (lambda: PFV(0.0, x), lambda v: v.nu, OutOfRange),
        (lambda: CPFV(x, 0.0, 0.0), lambda v: v.mu, OutOfRange),
        (lambda: CPFV(0.0, x, 0.0), lambda v: v.nu, OutOfRange),
        (lambda: CPFV(0.0, 0.0, x), lambda v: v.r, RadiusOutOfRange),
    ):
        if expected is None:
            with pytest.raises(error):
                build()
        else:
            got = stored(build())
            assert type(got) is float
            assert repr(got) == repr(expected)  # repr keeps the sign of -0.0


UNIT_EDGE_INPUTS = [
    True, False, 0, 1, 2, -1, "0.5", None,
    0.0, -0.0, 0.5, 1.0, FloatSub(0.5), FloatSub(-0.0), FloatSub(1.5),
    math.nan, math.inf, -math.inf,
    math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
    5e-324, 2.2250738585072014e-308 / 2,
    numpy.float64(0.25), numpy.float64(1.5), numpy.float64(-0.0),  # one more float subclass
]


class TestConstructorsCheckAsBefore:
    @pytest.mark.parametrize("x", UNIT_EDGE_INPUTS, ids=repr)
    def test_edge_inputs(self, x):
        assert_checked_as_before(x)

    @given(st.one_of(st.floats(), st.floats().map(FloatSub), st.integers(-2, 2), st.booleans()))
    def test_random_inputs(self, x):
        assert_checked_as_before(x)


class TestCpfs:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(UniverseMismatch):
            CPFS.from_components([("x", 0.1, 0.2, 0.0), ("x", 0.3, 0.4, 0.0)])

    def test_order_preserved(self):
        assert set_a().labels() == ("x1", "x2", "x3")


class TestComplement:
    def test_known_set(self):
        expected = CPFS.from_components(
            [("x1", 0.8, 0.3, 0.2), ("x2", 0.9, 0.1, 0.2), ("x3", 0.6, 0.5, 0.2)]
        )
        assert equal(complement(set_a()), expected)

    def test_involution(self):
        a = set_a()
        assert equal(complement(complement(a)), a)

    def test_symmetric_fixed_point(self):
        s = CPFS.from_components([("x", 0.5, 0.5, 0.3)])
        assert equal(complement(s), s)


class TestSubsetEqual:
    def test_known_containment(self):
        assert subset(set_a(), set_b())
        assert not subset(set_b(), set_a())

    def test_reflexive(self):
        assert subset(set_a(), set_a())

    def test_equal(self):
        assert equal(set_a(), set_a())
        assert not equal(set_a(), set_b())

    def test_radius_breaks_equality(self):
        a = CPFS.from_components([("x", 0.3, 0.4, 0.2)])
        b = CPFS.from_components([("x", 0.3, 0.4, 0.3)])
        assert not equal(a, b)
        assert subset(a, b)

    def test_universe_mismatch(self):
        other = CPFS.from_components([("y1", 0.3, 0.8, 0.2)])
        with pytest.raises(UniverseMismatch):
            subset(set_a(), other)
        with pytest.raises(UniverseMismatch):
            equal(set_a(), other)

    def test_partial_order_on_random_chains(self):
        rng = make_rng(101)
        for _ in range(2000):
            a = sample_cpfv(rng)
            b = grow(rng, a)
            c = grow(rng, b)
            sa = CPFS((("x", a),))
            sb = CPFS((("x", b),))
            sc = CPFS((("x", c),))
            assert subset(sa, sb) and subset(sb, sc)
            assert subset(sa, sc)  # transitivity
            if subset(sb, sa):  # antisymmetry
                assert equal(sa, sb)


class TestUnionIntersect:
    def test_union_min(self):
        expected = CPFS.from_components(
            [("x1", 0.7, 0.5, 0.2), ("x2", 0.2, 0.5, 0.2), ("x3", 0.6, 0.3, 0.2)]
        )
        assert equal(union(set_a(), set_b(), "min"), expected)

    def test_union_max(self):
        expected = CPFS.from_components(
            [("x1", 0.7, 0.5, 0.6), ("x2", 0.2, 0.5, 0.6), ("x3", 0.6, 0.3, 0.6)]
        )
        assert equal(union(set_a(), set_b(), "max"), expected)

    def test_intersect_min(self):
        expected = CPFS.from_components(
            [("x1", 0.3, 0.8, 0.2), ("x2", 0.1, 0.9, 0.2), ("x3", 0.5, 0.6, 0.2)]
        )
        assert equal(intersect(set_a(), set_b(), "min"), expected)

    def test_intersect_max(self):
        expected = CPFS.from_components(
            [("x1", 0.3, 0.8, 0.6), ("x2", 0.1, 0.9, 0.6), ("x3", 0.5, 0.6, 0.6)]
        )
        assert equal(intersect(set_a(), set_b(), "max"), expected)

    def test_idempotence(self):
        a = set_a()
        assert equal(union(a, a, "min"), a)
        assert equal(intersect(a, a, "max"), a)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            union(set_a(), set_b(), "median")

    @pytest.mark.parametrize("op", [union, intersect])
    @pytest.mark.parametrize("mode", ["bogus", "avg", "MIN", None])
    def test_bad_mode_on_empty_sets(self, op, mode):
        # checked before pairing, so no element is needed to reject it
        with pytest.raises(DomainError):
            op(CPFS(()), CPFS(()), mode)

    def test_results_remain_valid_on_random_pairs(self):
        # max/min recombination must never violate the value invariants
        rng = make_rng(202)
        for _ in range(2000):
            a = CPFS((("x", sample_cpfv(rng)), ("y", sample_cpfv(rng))))
            b = CPFS((("x", sample_cpfv(rng)), ("y", sample_cpfv(rng))))
            for mode in ("min", "max"):
                union(a, b, mode)
                intersect(a, b, mode)

    def test_de_morgan_laws_exact(self):
        rng = make_rng(303)
        for _ in range(2000):
            a = CPFS((("x", sample_cpfv(rng)), ("y", sample_cpfv(rng))))
            b = CPFS((("x", sample_cpfv(rng)), ("y", sample_cpfv(rng))))
            for mode in ("min", "max"):
                assert equal(complement(union(a, b, mode)), intersect(complement(a), complement(b), mode))
                assert equal(complement(intersect(a, b, mode)), union(complement(a), complement(b), mode))


@st.composite
def pfv_values(draw):
    mu = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    cap = math.sqrt(max(0.0, 1.0 - mu * mu))
    nu = draw(st.floats(min_value=0.0, max_value=cap, allow_nan=False)) if cap > 0.0 else 0.0
    return PFV(mu, nu)


@given(pfv_values())
def test_complement_is_involutive_on_points(p):
    assert p.complement().complement() == p


@given(pfv_values(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_any_center_and_radius_builds_a_valid_value(p, r):
    v = CPFV(p.mu, p.nu, r)
    assert 0.0 <= v.r <= 1.0
    assert v.center.quadratic_sum <= 1.0 + 1e-9
