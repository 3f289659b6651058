"""Half-up decimal rounding, shared by the pipeline and the table writers."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

from .errors import DomainError
from .values import _real

__all__ = ["MAX_PRECISION", "require_precision", "round_half_up", "format_fixed"]

#: Largest number of decimals the default 28-digit decimal context can hold
#: for every value in [0, 1]: ``1.0`` at 28 decimals needs 29 digits.
MAX_PRECISION = 27


def require_precision(digits: int) -> int:
    """``digits`` if it is an integer from 0 to :data:`MAX_PRECISION`, else :class:`DomainError`."""
    if isinstance(digits, bool) or not isinstance(digits, int) or not 0 <= digits <= MAX_PRECISION:
        raise DomainError(
            f"precision must be a non-negative integer at most {MAX_PRECISION}, got {digits!r}"
        )
    return digits


#: ``10**-digits`` for every precision :func:`require_precision` accepts.
_QUANTA = tuple(Decimal(1).scaleb(-digits) for digits in range(MAX_PRECISION + 1))


def _quantized(x: float, digits: int) -> Decimal:
    if type(x) is not float or not math.isfinite(x):  # a finite float passes _real unchanged
        x = _real(x, "x", DomainError)
    quantum = _QUANTA[require_precision(digits)]
    try:
        return Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP)
    except InvalidOperation:  # the result needs more digits than the 28-digit context holds
        raise DomainError(f"cannot round {x!r} to {digits} decimals in 28 digits") from None


def round_half_up(x: float, digits: int = 2) -> float:
    """Round to ``digits`` decimals with ties away from zero (half-up)."""
    return float(_quantized(x, digits))


def format_fixed(x: float, digits: int = 2) -> str:
    """Fixed-point half-up string, e.g. ``format_fixed(0.645, 2) == '0.65'``.

    Never in exponent form: ``format_fixed(0.0, 7) == '0.0000000'``.
    """
    return format(_quantized(x, digits), "f")
