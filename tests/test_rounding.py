import pytest
from hypothesis import given, strategies as st

from cpfs import MAX_PRECISION, DomainError, format_fixed, round_half_up


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
