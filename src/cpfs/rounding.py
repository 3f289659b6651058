"""Half-up decimal rounding, shared by the pipeline and the table writers."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

from .errors import DomainError

__all__ = ["MAX_PRECISION", "require_precision", "round_half_up", "format_fixed"]

#: Largest number of decimals the default 28-digit decimal context can hold
#: for every value in [0, 1]: ``1.0`` at 28 decimals needs 29 digits.
MAX_PRECISION = 27


def require_precision(digits: int) -> int:
    """``digits``, or :class:`DomainError` if it exceeds :data:`MAX_PRECISION`."""
    if digits > MAX_PRECISION:
        raise DomainError(f"precision must be at most {MAX_PRECISION}, got {digits}")
    return digits


def _quantized(x: float, digits: int) -> Decimal:
    exp = Decimal(1).scaleb(-require_precision(digits))
    return Decimal(repr(float(x))).quantize(exp, rounding=ROUND_HALF_UP)


def round_half_up(x: float, digits: int = 2) -> float:
    """Round to ``digits`` decimals with ties away from zero (half-up)."""
    return float(_quantized(x, digits))


def format_fixed(x: float, digits: int = 2) -> str:
    """Fixed-point half-up string, e.g. ``format_fixed(0.645, 2) == '0.65'``.

    Never in exponent form: ``format_fixed(0.0, 7) == '0.0000000'``.
    """
    return format(_quantized(x, digits), "f")
