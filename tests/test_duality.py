"""The product-side operations against their written-out references.

``multiply``, ``power``, ``multiply_minmax``, ``multiply_general``, ``cpwg``
and ``intersect`` are derived from their sum-side duals through the
complement.  ``add`` and ``scalar_multiple`` are the aggregation kernel with
weights ``(1, 1)`` and ``(lambda,)``.  Each must return exactly what the
written-out form in ``helpers`` returns: the same floats, bit for bit,
including the sign of ``-0.0``, or the same exception type.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cpfs import (
    CPFS,
    CPFV,
    Generator,
    GeneratorPair,
    WeightVector,
    add,
    algebraic_generator,
    algebraic_pair,
    cpwg,
    intersect,
    multiply,
    multiply_general,
    multiply_minmax,
    power,
    pythagorean_complement,
    scalar_multiple,
    tnorm_from_generator,
)
from helpers import (
    reference_add,
    reference_cpwg,
    reference_intersect,
    reference_multiply,
    reference_multiply_general,
    reference_multiply_minmax,
    reference_power,
    reference_scalar_multiple,
)

G = algebraic_generator()
# A user-supplied pair: the membership side h(t) = g(sqrt(1 - t**2)) built
# from g alone, and g again on the radius side.
DERIVED_H = Generator(
    "derived_dual",
    lambda t: G.forward(pythagorean_complement(t)),
    lambda s: pythagorean_complement(G.inverse(s)),
    increasing=True,
)
GENS = {
    "algebraic_q": algebraic_pair("algebraic_q"),
    "algebraic_p": algebraic_pair("algebraic_p"),
    "derived": GeneratorPair(g=G, h=DERIVED_H, q=G),
}
TNORMS = [tnorm_from_generator(algebraic_generator()), lambda x, y: x * y, min]
RADIUS_OPS = [min, max, lambda x, y: x * y]

# Both zeros, both ends, points on the unit circle and values near the ends.
UNIT_POOL = [0.0, -0.0, 1.0, 0.6, 0.8, 0.5, 1e-9, 2e-9, 0.999999999, 1 / 3, 5e-324, 1e-300, 1 - 1e-16]
CENTER_POOL = [(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, -0.0), (-0.0, 1.0), (0.6, 0.8), (0.8, 0.6)]

unit = st.one_of(st.sampled_from(UNIT_POOL), st.floats(0.0, 1.0))
centers = st.one_of(
    st.sampled_from(CENTER_POOL),
    st.tuples(unit, unit).filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0),
)
radii = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), unit)
cpfvs = st.builds(lambda c, r: CPFV(c[0], c[1], r), centers, radii)
gens = st.sampled_from(sorted(GENS)).map(GENS.get)
lambdas = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 1e-3, 1e3, 1]), st.floats(1e-6, 1e6))
modes = st.sampled_from(["min", "max"])


@st.composite
def weighted_rows(draw):
    values = draw(st.lists(cpfvs, min_size=1, max_size=6))
    raw = draw(
        st.lists(st.one_of(st.sampled_from([0.0, 0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
                 min_size=len(values), max_size=len(values))
    )
    total = sum(raw)
    if total == 0.0:
        raw[0], total = 1.0, 1.0
    return values, WeightVector(tuple(x / total for x in raw))


@st.composite
def set_pairs(draw):
    n = draw(st.integers(0, 4))
    labels = [f"x{i}" for i in range(n)]
    a = CPFS(tuple(zip(labels, draw(st.lists(cpfvs, min_size=n, max_size=n)))))
    b = CPFS(tuple(zip(labels, draw(st.lists(cpfvs, min_size=n, max_size=n)))))
    return a, b


def bits(value):
    """The exact outcome: float hex strings (signed zeros differ) or the error type."""
    if isinstance(value, CPFS):
        return tuple((label, bits(v)) for label, v in value)
    assert all(type(x) is float for x in value.as_tuple())
    return tuple(x.hex() for x in value.as_tuple())


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err)


@settings(max_examples=300)
@given(cpfvs, cpfvs, gens)
def test_add_is_reference(a, b, pair):
    assert outcome(add, a, b, pair) == outcome(reference_add, a, b, pair)


@settings(max_examples=300)
@given(cpfvs, lambdas, gens)
def test_scalar_multiple_is_reference(a, lam, pair):
    assert outcome(scalar_multiple, lam, a, pair) == outcome(reference_scalar_multiple, lam, a, pair)


@settings(max_examples=300)
@given(cpfvs, cpfvs, gens)
def test_multiply_is_reference(a, b, pair):
    assert outcome(multiply, a, b, pair) == outcome(reference_multiply, a, b, pair)


@settings(max_examples=300)
@given(cpfvs, lambdas, gens)
def test_power_is_reference(a, lam, pair):
    assert outcome(power, a, lam, pair) == outcome(reference_power, a, lam, pair)


@settings(max_examples=300)
@given(cpfvs, cpfvs, modes)
def test_multiply_minmax_is_reference(a, b, mode):
    assert outcome(multiply_minmax, a, b, mode) == outcome(reference_multiply_minmax, a, b, mode)


@settings(max_examples=300)
@given(cpfvs, cpfvs, st.sampled_from(TNORMS), st.sampled_from(RADIUS_OPS))
def test_multiply_general_is_reference(a, b, tnorm, radius_op):
    got = outcome(multiply_general, a, b, tnorm, radius_op)
    assert got == outcome(reference_multiply_general, a, b, tnorm, radius_op)


@settings(max_examples=300)
@given(weighted_rows(), gens)
def test_cpwg_is_reference(row, pair):
    values, w = row
    assert outcome(cpwg, values, w, pair) == outcome(reference_cpwg, values, w, pair)


@given(weighted_rows())
def test_cpwg_default_generators_are_reference(row):
    values, w = row
    assert outcome(cpwg, values, w) == outcome(reference_cpwg, values, w)


@settings(max_examples=300)
@given(set_pairs(), modes)
def test_intersect_is_reference(sets, mode):
    a, b = sets
    assert outcome(intersect, a, b, mode) == outcome(reference_intersect, a, b, mode)


@pytest.mark.parametrize("pair", sorted(GENS))
def test_signed_zero_survives_the_conjugation(pair):
    a, b = CPFV(-0.0, 1.0, -0.0), CPFV(0.6, 0.8, 0.0)
    for got, want in [
        (multiply(a, b, GENS[pair]), reference_multiply(a, b, GENS[pair])),
        (power(a, 2.0, GENS[pair]), reference_power(a, 2.0, GENS[pair])),
        (multiply_minmax(a, b), reference_multiply_minmax(a, b)),
        (multiply_minmax(b, a, "max"), reference_multiply_minmax(b, a, "max")),
    ]:
        assert bits(got) == bits(want)
    got = intersect(CPFS((("x", a),)), CPFS((("x", b),)))
    assert math.copysign(1.0, got.values()[0].r) == -1.0
    assert bits(got) == bits(reference_intersect(CPFS((("x", a),)), CPFS((("x", b),))))
