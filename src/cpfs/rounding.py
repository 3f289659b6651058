"""Half-up decimal rounding, shared by the pipeline and the table writers.

The reference rounds ``Decimal(repr(x))`` half-up.  A float in [-1, 1] at 0
to 9 decimals is ``%``-formatted instead, which CPython rounds correctly,
unless ``y = abs(x) * 10.0**digits`` is within 1e-6 of a half-integer.  The
error of ``y`` is at most 6e-8 and that of ``repr(x)``, scaled, at most
5.6e-8, so outside that band both round to the same digits.  Near-ties and
every other input take the ``Decimal`` path, also in the column form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

from .errors import DomainError
from .values import _real, _shown

__all__ = ["MAX_PRECISION", "round_half_up", "format_fixed"]

#: Largest number of decimals the default 28-digit decimal context can hold
#: for every value in [0, 1]: ``1.0`` at 28 decimals needs 29 digits.
MAX_PRECISION = 27


def require_precision(digits: int) -> int:
    """``digits`` if it is an integer from 0 to :data:`MAX_PRECISION`, else :class:`DomainError`."""
    if isinstance(digits, bool) or not isinstance(digits, int) or not 0 <= digits <= MAX_PRECISION:
        raise DomainError(f"must be a non-negative integer at most {MAX_PRECISION}, got {_shown(digits)}",
                          location="precision")
    return digits


#: ``10**-digits`` for every precision :func:`require_precision` accepts.
_QUANTA = tuple(Decimal(1).scaleb(-digits) for digits in range(MAX_PRECISION + 1))
#: The ``%``-format path's scale and format for each of its precisions, 0 to 9.
_FAST = tuple((10.0**digits, f"%.{digits}f") for digits in range(10))


def round_half_up(x: float, digits: int = 2) -> float:
    """Round to ``digits`` decimals with ties away from zero (half-up)."""
    return float(format_fixed(x, digits))


def format_fixed(x: float, digits: int = 2) -> str:
    """Fixed-point half-up string, e.g. ``format_fixed(0.645, 2) == '0.65'``.

    Never in exponent form: ``format_fixed(0.0, 7) == '0.0000000'``.
    """
    if type(x) is float and -1.0 <= x <= 1.0 and type(digits) is int and 0 <= digits <= 9:
        scale, fixed = _FAST[digits]
        if abs(abs(x) * scale % 1.0 - 0.5) > 1e-6:  # % 1.0 of a float >= 0 is exact
            return fixed % x
    if type(x) is not float or not math.isfinite(x):  # a finite float passes _real unchanged
        x = _real(x, "x", DomainError)
    quantum = _QUANTA[require_precision(digits)]
    try:
        return format(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP), "f")
    except InvalidOperation:  # the result needs more digits than the 28-digit context holds
        raise DomainError(f"cannot round {x!r} to {digits} decimals in 28 digits") from None


def _format_column(xs: Sequence[float], digits: int) -> list[str]:
    """``[format_fixed(x, digits) for x in xs]`` in whole-column passes: a column of floats in
    [-1, 1] at 0 to 9 decimals is ``%``-formatted at once, and only its values in the tie band go
    through :func:`format_fixed`, a NaN among them, which ``min`` and ``max`` pass over unless it
    comes first; any other column goes through it whole."""
    if not (type(digits) is int and 0 <= digits <= 9 and {*map(type, xs)} <= {float}
            and -1.0 <= min(xs, default=0.0) and max(xs, default=0.0) <= 1.0):
        return [format_fixed(x, digits) for x in xs]
    scale, fixed = _FAST[digits]
    texts = list(map(fixed.__mod__, xs))
    for i in [i for i, x in enumerate(xs) if not abs(abs(x) * scale % 1.0 - 0.5) > 1e-6]:
        texts[i] = format_fixed(xs[i], digits)
    return texts
