import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import (
    MAX_PRECISION,
    DomainError,
    ParseError,
    collections_path,
    format_fixed,
    load_case_study,
    round_half_up,
    solve,
)
from cpfs.cli import main
from cpfs.rounding import _format_column
from cpfs.serialize import parse_config, write_solve_tables
from helpers import reference_format_fixed, reference_round_half_up


@pytest.mark.parametrize(
    "x, digits, text",
    [
        (0.645, 2, "0.65"),
        (0.125, 2, "0.13"),
        (0.5, 0, "1"),
        (-0.0, 2, "-0.00"),
        (1.0, 3, "1.000"),
        (0.0, 7, "0.0000000"),
        (1e-9, 8, "0.00000000"),
        (1e-7, 8, "0.00000010"),
        (1.0, MAX_PRECISION, "1." + "0" * MAX_PRECISION),
    ],
)
def test_format_fixed_is_fixed_point_half_up(x, digits, text):
    assert format_fixed(x, digits) == text


@given(st.floats(0.0, 1.0), st.integers(0, MAX_PRECISION))
def test_every_unit_value_formats_up_to_the_bound(x, digits):
    text = format_fixed(x, digits)
    assert "E" not in text
    assert len(text.partition(".")[2]) == digits
    assert float(text) == round_half_up(x, digits)


@pytest.mark.parametrize("fn", [format_fixed, round_half_up])
@pytest.mark.parametrize("digits", [MAX_PRECISION + 1, 40, 100000])
def test_precision_above_the_bound_is_a_domain_error(fn, digits):
    with pytest.raises(DomainError, match=f"at most {MAX_PRECISION}"):
        fn(1.0, digits)


@pytest.mark.parametrize("fn", [format_fixed, round_half_up])
@pytest.mark.parametrize("digits", [-1, True, 2.0, "2", None], ids=repr)
def test_precision_must_be_a_non_negative_integer(fn, digits):
    with pytest.raises(DomainError, match="non-negative integer"):
        fn(0.5, digits)


def test_a_precision_too_long_to_print_is_reported_without_printing_it():
    for fn in (format_fixed, round_half_up):
        with pytest.raises(DomainError, match="too large to print"):
            fn(0.5, 10**5000)
    with pytest.raises(ParseError, match="too large to print"):
        parse_config({"precision": 10**5000})


def test_a_long_precision_is_shown_cut_short():
    # 4,000 digits convert to text, but a message quotes only the first 16.
    for fn in (format_fixed, round_half_up):
        with pytest.raises(DomainError) as info:
            fn(0.5, 10**3999)
        assert str(info.value).endswith(f"got 1{'0' * 15}...")
    with pytest.raises(ParseError) as info:
        parse_config({"precision": 10**3999})
    assert str(info.value).endswith(f"got 1{'0' * 15}...")


def mismatches(values, digits):
    """The values whose rounding at ``digits`` differs from the reference:
    ``format_fixed`` as text, ``round_half_up`` bit for bit against the float
    of that text, which is what ``reference_round_half_up`` returns."""
    texts = [reference_format_fixed(x, digits) for x in values]
    return [
        x for x, text in zip(values, texts)
        if format_fixed(x, digits) != text or round_half_up(x, digits).hex() != float(text).hex()
    ]


FIVE_DECIMAL_GRID = [k / 100_000 for k in range(-100_000, 100_001)]


@pytest.mark.parametrize("digits", range(10))
def test_the_five_decimal_grid_rounds_as_the_reference(digits):
    assert mismatches(FIVE_DECIMAL_GRID, digits) == []


@pytest.mark.parametrize("digits", range(7))
def test_both_neighbours_of_every_tie_round_as_the_reference(digits):
    scale = 10**digits
    ties = [(j + 0.5) / scale for j in range(scale)]
    near = [math.nextafter(t, 0.0) for t in ties] + [math.nextafter(t, 2.0) for t in ties]
    assert mismatches(near, digits) == []


SUBNORMALS = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310]


@pytest.mark.parametrize("digits", range(MAX_PRECISION + 1))
def test_zeros_ones_and_subnormals_round_as_the_reference(digits):
    assert mismatches([s * x for x in (0.0, 1.0, *SUBNORMALS) for s in (1.0, -1.0)], digits) == []


@given(st.one_of(st.floats(-1.0, 1.0), st.floats()), st.integers(0, MAX_PRECISION))
@example(1e300, 2)
def test_any_float_rounds_as_the_reference(x, digits):
    try:
        want = reference_format_fixed(x, digits)
    except DomainError:
        for fn in (format_fixed, round_half_up):
            with pytest.raises(DomainError):
                fn(x, digits)
    else:
        assert format_fixed(x, digits) == want
        assert round_half_up(x, digits).hex() == reference_round_half_up(x, digits).hex()
        assert float(want).hex() == reference_round_half_up(x, digits).hex()  # as mismatches assumes


@pytest.mark.parametrize("fn", [format_fixed, round_half_up])
def test_a_value_that_needs_more_than_28_digits_is_a_domain_error(fn):
    with pytest.raises(DomainError, match="28 digits"):
        fn(1e300, 2)


# -- the column form: whole-column passes, format_fixed's strings and errors ----


@st.composite
def near_ties(draw, precisions):
    """``k / 10**d``, mostly with ``k`` a half-integer, at a precision ``d`` drawn from ``precisions``
    (0 to 12), as it is, moved by an offset inside or just outside the 1e-6 tie band, or moved by
    a few ulps; either sign."""
    d = draw(precisions)
    x = (draw(st.integers(0, 10**d)) + draw(st.sampled_from([0.5, 0.5, 0.0]))) / 10**d
    move = draw(st.sampled_from(["none", "none", "band", "ulps"]))
    if move == "band":
        x += draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([5e-7, 9.9e-7, 1.01e-6, 2e-6])) / 10**d
    for _ in range(draw(st.integers(1, 3)) if move == "ulps" else 0):
        x = math.nextafter(x, draw(st.sampled_from([0.0, 2.0])))
    return draw(st.sampled_from([1.0, -1.0])) * x


EDGES = [0.0, -0.0, *SUBNORMALS, *(-s for s in SUBNORMALS), 1.0, -1.0,
         math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0)]
BEYOND = st.floats(1.0, 1e300, exclude_min=True).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def columns(draw):
    """A precision from 0 to 27 and a column: near-ties at that precision (up to 12) or another,
    the edge values and, in some columns, a value beyond ±1 and a NaN or an infinity."""
    digits = draw(st.integers(0, 12) | st.integers(0, MAX_PRECISION))
    precisions = st.sampled_from([min(digits, 12)] * 3 + list(range(13)))
    xs = draw(st.lists(near_ties(precisions) | st.sampled_from(EDGES), max_size=24))
    for extra in (BEYOND, st.sampled_from([math.nan, math.inf, -math.inf])):
        for x in draw(st.lists(extra, max_size=1)):
            xs.insert(draw(st.integers(0, len(xs))), x)
    return xs, digits


def outcome(fn):
    """``fn()``, or the type and message of the :class:`DomainError` it raises."""
    try:
        return fn()
    except DomainError as err:
        return type(err), str(err)


@settings(max_examples=300)
@given(columns())
@example(([0.285, 0.015, 0.125, -0.5045], 2))  # 0.285 * 100.0 is 28.499999999999996
@example(([0.5, 1.005], 2))
@example(([0.25, math.nan, 2.0], 1))
def test_a_column_formats_as_format_fixed_on_each_value(case):
    """The column form equals ``format_fixed`` on every value, and a NaN or an infinity
    anywhere in the column is the error ``format_fixed`` gives for the first bad value."""
    xs, digits = case
    assert outcome(lambda: _format_column(xs, digits)) == outcome(lambda: [format_fixed(x, digits) for x in xs])


# -- one rule, one message: every channel rejects a precision alike ------------

#: What each rejection of a precision says after its source and place.
RULE = f"must be a non-negative integer at most {MAX_PRECISION}, got "

#: Each rejected precision, with the command-line text that gives it; a string has
#: none, since every argument is one.
REJECTED = {
    "-1": (-1, "-1"),
    "28": (28, "28"),
    "True": (True, "True"),
    "2.0": (2.0, "2.0"),
    "'2'": ("2", None),
    "5000 digits": (10**4999, "1" * 5000),
}

#: Each library entry point that takes a precision, called with ``digits`` and a directory.
LIBRARY = {
    "round_half_up": lambda digits, out: round_half_up(0.5, digits),
    "format_fixed": lambda digits, out: format_fixed(0.5, digits),
    "solve": lambda digits, out: solve(load_case_study(), aggregate_precision=digits),
    "write_solve_tables": lambda digits, out: write_solve_tables(solve(load_case_study()), out, digits),
}


@pytest.mark.parametrize("name", REJECTED)
@pytest.mark.parametrize("entry", LIBRARY)
def test_the_library_rejects_a_precision_by_the_rule(tmp_path, entry, name):
    with pytest.raises(DomainError) as info:
        LIBRARY[entry](REJECTED[name][0], tmp_path / "out")
    err = info.value
    assert err.location == "precision"
    assert str(err) == f"precision: {err.args[0]}"
    assert err.args[0].startswith(RULE)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", REJECTED)
@pytest.mark.parametrize("key", ["precision", "aggregate_precision"])
def test_a_config_rejects_a_precision_by_the_rule(key, name):
    with pytest.raises(ParseError) as info:
        parse_config({key: REJECTED[name][0]}, source="cfg.json")
    err = info.value
    assert (err.source, err.location) == ("cfg.json", key)
    assert str(err) == f"cfg.json: {key}: {err.args[0]}"
    assert err.args[0].startswith(RULE)


@pytest.mark.parametrize("name", [name for name, (_, text) in REJECTED.items() if text is not None])
@pytest.mark.parametrize("command", [["solve"], ["fuse", "--input", str(collections_path())]],
                         ids=["solve", "fuse"])
def test_the_cli_rejects_a_precision_by_the_rule(capsys, command, name):
    with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value
        main([*command, "--precision", REJECTED[name][1]])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"cpfs {command[0]}: error: argument --precision: {RULE}")
