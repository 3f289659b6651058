"""Every error the package raises derives from CircularFuzzyError, and an
argument of the wrong kind raises Python's own TypeError or AttributeError."""

import pytest

from cpfs import (
    CPFS,
    CPFV,
    PFV,
    CircularFuzzyError,
    DecisionProblem,
    DomainError,
    GeneratorPair,
    ParseError,
    UnknownGenerator,
    UnknownOperator,
    WeightVector,
    add,
    add_minmax,
    algebraic_dual_generator,
    algebraic_generator,
    algebraic_pair,
    complement,
    complexity_estimate,
    cpwa,
    csm,
    csm_to_ideal,
    fuse,
    intersect,
    multiply,
    multiply_minmax,
    power,
    scalar_multiple,
    solve,
    tconorm_from_generator,
    tnorm_from_generator,
    union,
)
from cpfs.values import radius_mode_op

A = CPFV(0.6, 0.5, 0.2)
S = CPFS((("x", A),))
G, H = algebraic_generator(), algebraic_dual_generator()

DOMAIN_ERRORS = {
    "radius_mode_op": lambda: radius_mode_op("median"),
    "union": lambda: union(S, S, "median"),
    "intersect": lambda: intersect(S, S, "median"),
    "add_minmax": lambda: add_minmax(A, A, "median"),
    "multiply_minmax": lambda: multiply_minmax(A, A, "median"),
    "GeneratorPair.g": lambda: GeneratorPair(g=H, h=H, q=G),
    "GeneratorPair.h": lambda: GeneratorPair(g=G, h=G, q=G),
    "tnorm_from_generator": lambda: tnorm_from_generator(H),
    "tconorm_from_generator": lambda: tconorm_from_generator(G),
}


@pytest.mark.parametrize("call", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS)
def test_domain_errors_are_in_the_hierarchy(call):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, CircularFuzzyError)
    assert isinstance(info.value, ValueError)


#: Calls given a value no message should print in full: a 100 KB string, or an
#: integer over the interpreter's 4,300-digit limit for conversion to text.
LONG_VALUES = {
    "PFV": lambda: PFV("x" * 100_000, 0.5),
    "WeightVector": lambda: WeightVector(("w" * 100_000,)),
    "complexity_estimate": lambda: complexity_estimate(-(10**5000), 5, 3),
    "algebraic_pair": lambda: algebraic_pair(10**5000),
    "add_minmax": lambda: add_minmax(A, A, 10**5000),
    "CPFS duplicate label": lambda: CPFS((("x" * 100_000, A), ("x" * 100_000, A))),
    "DecisionProblem duplicate label": lambda: DecisionProblem(
        ("a" * 100_000,) * 2, ("c",), ("benefit",), (1.0,), (((PFV(0.5, 0.5),),) * 2,)
    ),
}


@pytest.mark.parametrize("call", LONG_VALUES.values(), ids=LONG_VALUES)
def test_a_long_rejected_value_is_echoed_cut_short(call):
    with pytest.raises(CircularFuzzyError) as info:
        call()
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("error", [UnknownOperator, UnknownGenerator])
def test_a_lookup_error_prints_its_message_unquoted(error):
    # KeyError's own __str__ would print the repr of the message.
    assert str(error("unknown name 'x'")) == "unknown name 'x'"


@pytest.mark.parametrize("location, source, text", [
    (None, None, "bad cell"),
    ("experts[0][1][2]", None, "experts[0][1][2]: bad cell"),
    (None, "p.json", "p.json: bad cell"),
    ("experts[0][1][2]", "p.json", "p.json: experts[0][1][2]: bad cell"),
], ids=["bare", "location", "source", "both"])
def test_a_parse_error_prints_its_source_and_location_before_its_message(location, source, text):
    err = ParseError("bad cell", location=location, source=source)
    assert str(err) == text
    assert (err.args, err.location, err.source) == (("bad cell",), location, source)


def test_a_located_lookup_error_prints_its_location_and_message_unquoted():
    err = UnknownOperator("unknown name 'x'")
    assert err.location is None
    err.location = "operator"
    assert str(err) == "operator: unknown name 'x'"


W = WeightVector((0.5, 0.5))
PAIR = algebraic_pair()

#: Public entry points given a wrong kind, an ``int``, where a value, a pair, a
#: set, a collection or a problem belongs, with the built-in error each raises.
WRONG_KINDS = {
    "csm(5, v)": (AttributeError, lambda: csm(5, A)),
    "csm_to_ideal(5)": (AttributeError, lambda: csm_to_ideal(5)),
    "add(v, v, 5)": (AttributeError, lambda: add(A, A, 5)),
    "add(5, v, pair)": (AttributeError, lambda: add(5, A, PAIR)),
    "multiply(v, 5, pair)": (AttributeError, lambda: multiply(A, 5, PAIR)),
    "scalar_multiple(2.0, 5, pair)": (AttributeError, lambda: scalar_multiple(2.0, 5, PAIR)),
    "power(5, 2.0, pair)": (AttributeError, lambda: power(5, 2.0, PAIR)),
    "add_minmax(5, v)": (AttributeError, lambda: add_minmax(5, A)),
    "fuse([5])": (AttributeError, lambda: fuse([5])),
    "cpwa([v, 5], w)": (AttributeError, lambda: cpwa([A, 5], W)),
    "union(5, 5)": (AttributeError, lambda: union(5, 5)),
    "solve(5)": (AttributeError, lambda: solve(5)),
    "fuse(5)": (TypeError, lambda: fuse(5)),
    "cpwa(5, w)": (TypeError, lambda: cpwa(5, W)),
    "WeightVector(5)": (TypeError, lambda: WeightVector(5)),
    "CPFS(5)": (TypeError, lambda: CPFS(5)),
    "complement(5)": (TypeError, lambda: complement(5)),
}


@pytest.mark.parametrize("error, call", WRONG_KINDS.values(), ids=WRONG_KINDS)
def test_an_argument_of_the_wrong_kind_raises_pythons_own_error(error, call):
    """The library's rule: a wrong kind raises Python's own ``TypeError`` or
    ``AttributeError``; only a value of the right kind that breaks a rule raises
    a ``CircularFuzzyError``."""
    with pytest.raises(error) as info:
        call()
    assert not isinstance(info.value, CircularFuzzyError)
