"""Core value types and set-theoretic operations.

Three immutable types build on each other:

- :class:`PFV` -- a membership / non-membership pair ``(mu, nu)`` on the unit
  interval constrained by ``mu**2 + nu**2 <= 1``.
- :class:`CPFV` -- the triple ``<mu, nu; r>``: a circle whose center ``(mu, nu)``
  obeys the :class:`PFV` invariants, with a radius ``r`` in ``[0, 1]`` that
  models the uncertainty of the evaluation around the center.  The atomic
  value of the whole package.
- :class:`CPFS` -- an ordered, label-indexed family of :class:`CPFV` over a
  finite universe.  Each element carries its own radius; a uniform-radius set
  is simply the special case where all radii coincide.

Conventions:

- Validation accepts ``mu**2 + nu**2`` up to ``1 + UNIT_SLACK`` so that
  two-decimal inputs sitting exactly on the unit circle (e.g. ``0.8, 0.6``)
  never fail after decimal-to-binary parsing.  Stored values are kept as
  given, never clamped.
- All set operations preserve element order, so emitted tables are
  deterministic.
- Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Iterable, Iterator, Literal

from .errors import (
    CircularFuzzyError,
    ConstraintViolation,
    DomainError,
    OutOfRange,
    RadiusOutOfRange,
    UniverseMismatch,
)

__all__ = [
    "UNIT_SLACK",
    "PFV",
    "CPFV",
    "CPFS",
    "complement",
    "subset",
    "equal",
    "union",
    "intersect",
]

#: Slack on the quadratic constraint, covering decimal inputs on the boundary.
UNIT_SLACK = 1e-9

RadiusMode = Literal["min", "max"]


def _shown(value: object) -> str:
    """``repr(value)`` for an error message: cut after 16 characters, so a huge
    input cannot flood it, or a note for an integer too long to convert to text."""
    try:
        text = repr(value)
    except ValueError:  # over the interpreter's integer-to-string digit limit
        return "an integer too large to print"
    return text if len(text) <= 16 else text[:16] + "..."


def _label(value: object) -> str:
    """``str(value)`` as text UTF-8 can encode, or :class:`DomainError`: the one label rule."""
    try:
        label = str(value)
        label.encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate, which JSON can escape
        raise DomainError(f"label is not valid text: {e.reason}") from None
    except ValueError:  # over the interpreter's integer-to-string digit limit
        raise DomainError(f"a label must convert to text, got {_shown(value)}") from None
    return label


def _labels(values: Iterable[object], where: str, error: type[CircularFuzzyError]) -> tuple[str, ...]:
    """Each value as a label (see :func:`_label`), or ``error`` at ``where`` naming the first repeat."""
    labels = tuple(map(_label, values))
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise error(f"labels must be unique, {_shown(label)} repeats", location=where)
        seen.add(label)
    return labels


def _real(value: float, name: str, error: type[CircularFuzzyError]) -> float:
    """``value`` as a finite float, or ``error``: the one check of every real input."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range; its repr may be too long to print
        raise error(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise error(f"{name} must be finite, got {x!r}")
    return x


def _require_count(value: int, name: str, minimum: int, error: type[CircularFuzzyError]) -> int:
    """``value`` as an integer from ``minimum`` to ``sys.maxsize`` (the longest a
    sequence can be), or ``error``: the one check of every count."""
    if not isinstance(value, int) or isinstance(value, bool) or not minimum <= value <= sys.maxsize:
        raise error(f"{name} must be an integer from {minimum} to {sys.maxsize}, got {_shown(value)}")
    return value


def _require_component(value: float, name: str, error: type[CircularFuzzyError] = OutOfRange) -> float:
    """``value`` as a float in [0, 1], or ``error``."""
    x = _real(value, name, error)
    if x < 0.0 or x > 1.0:
        raise error(f"{name} must lie in [0, 1], got {x}")
    return x


def _require_point(mu: float, nu: float) -> None:
    """Raise unless the floats ``mu``, ``nu`` make a point value: each in [0, 1] (else
    :class:`OutOfRange`), ``mu**2 + nu**2 <= 1 + UNIT_SLACK`` (else :class:`ConstraintViolation`)."""
    # NaN fails the comparison too; _require_component then names it not finite.
    if not 0.0 <= mu <= 1.0:
        _require_component(mu, "mu")
    if not 0.0 <= nu <= 1.0:
        _require_component(nu, "nu")
    s = mu * mu + nu * nu
    if s > 1.0 + UNIT_SLACK:
        raise ConstraintViolation(f"mu**2 + nu**2 must not exceed 1, got {s} for mu={mu}, nu={nu}")


def _point(self: PFV | CPFV) -> None:
    """The one point check, ``PFV.__post_init__``: floats ``mu``, ``nu`` by :func:`_require_point`."""
    mu, nu = self.mu, self.nu
    if type(mu) is not float or type(nu) is not float:
        mu, nu = _require_component(mu, "mu"), _require_component(nu, "nu")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
    _require_point(mu, nu)


@dataclass(frozen=True, slots=True)
class PFV:
    """A membership / non-membership pair with quadratic constraint.

    Invariants (checked on construction):

    - ``0 <= mu <= 1`` and ``0 <= nu <= 1``
    - ``mu**2 + nu**2 <= 1 + UNIT_SLACK``
    """

    mu: float
    nu: float

    __post_init__ = _point

    def complement(self) -> "PFV":
        """Swap the membership and non-membership components."""
        return PFV(self.nu, self.mu)


@dataclass(frozen=True, slots=True)
class CPFV:
    """The circle ``<mu, nu; r>``: a point-value center ``(mu, nu)`` and a radius in ``[0, 1]``."""

    mu: float
    nu: float
    r: float

    def __post_init__(self) -> None:
        _point(self)
        if type(self.r) is not float or not 0.0 <= self.r <= 1.0:  # a float in [0, 1] passes as it is
            object.__setattr__(self, "r", _require_component(self.r, "radius", RadiusOutOfRange))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu, self.nu, self.r)

    def complement(self) -> "CPFV":
        """Swap the center's membership and non-membership; radius unchanged."""
        return CPFV(self.nu, self.mu, self.r)


def _points_pass(mu: Sequence[float], nu: Sequence[float], *more: Sequence[float]) -> bool:
    """The column point rule: whether each cell of the non-empty float columns ``mu``, ``nu`` passes
    :func:`_require_point`, by its float expression, and each column of ``more`` lies in [0, 1]."""
    # A NaN can hide from min() and max(), but not from sum().
    squares = map(add, map(mul, mu, mu), map(mul, nu, nu))
    return max(squares) <= 1.0 + UNIT_SLACK and all(
        0.0 <= min(c) and max(c) <= 1.0 and not math.isnan(sum(c)) for c in (mu, nu, *more)
    )


def _require_circles(mu: Sequence[float], nu: Sequence[float], r: Sequence[float],
                     where: Callable[[int], str | None] = lambda c: None) -> None:
    """The check of :class:`CPFV` on each cell of non-empty float columns, in whole-column passes;
    the first cell ``c`` that fails is built as a :class:`CPFV`, to raise its error at ``where(c)``."""
    if _points_pass(mu, nu, r):
        return
    for c, cell in enumerate(zip(mu, nu, r)):
        try:
            CPFV(*cell)
        except CircularFuzzyError as err:
            err.location = where(c)
            raise


class CPFVRow(Sequence):
    """Circular values held as their component sequences ``mu``, ``nu`` and ``r``: a read-only
    ``Sequence[CPFV]`` that builds each item on access, ``==`` and hashed as the tuple of its values."""

    __slots__ = ("mu", "nu", "r")

    def __init__(self, mu: Sequence[float], nu: Sequence[float], r: Sequence[float]) -> None:
        self.mu, self.nu, self.r = mu, nu, r

    @classmethod
    def of(cls, values: Sequence[CPFV]) -> "CPFVRow":
        return cls([v.mu for v in values], [v.nu for v in values], [v.r for v in values])

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, i: int | slice) -> "CPFV | CPFVRow":
        return (CPFVRow if isinstance(i, slice) else CPFV)(self.mu[i], self.nu[i], self.r[i])

    def __iter__(self) -> Iterator[CPFV]:
        return map(CPFV, self.mu, self.nu, self.r)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (CPFVRow, tuple)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self) -> tuple:  # slots without __getstate__ do not pickle at protocols 0 and 1
        return CPFVRow, (self.mu, self.nu, self.r)


@dataclass(frozen=True, slots=True)
class CPFS:
    """An ordered family of labelled :class:`CPFV` over a finite universe."""

    elements: tuple[tuple[str, CPFV], ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        labels = _labels((label for label, _ in elems), "elements", UniverseMismatch)
        values = tuple(value for _, value in elems)
        for label, value in zip(labels, values):
            if not isinstance(value, CPFV):
                raise OutOfRange(f"element {_shown(label)} must be a CPFV, got {_shown(value)}")
        object.__setattr__(self, "elements", tuple(zip(labels, values)))

    @classmethod
    def from_components(cls, rows: Iterable[tuple[str, float, float, float]]) -> "CPFS":
        """Build from ``(label, mu, nu, r)`` rows."""
        return cls(tuple((label, CPFV(mu, nu, r)) for label, mu, nu, r in rows))

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.elements)

    def values(self) -> tuple[CPFV, ...]:
        return tuple(value for _, value in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[tuple[str, CPFV]]:
        return iter(self.elements)


def _paired(a: CPFS, b: CPFS) -> list[tuple[str, CPFV, CPFV]]:
    if a.labels() != b.labels():
        raise UniverseMismatch(
            f"sets are defined over different universes: {a.labels()} vs {b.labels()}"
        )
    return [(label, x, y) for (label, x), (_, y) in zip(a.elements, b.elements)]


def radius_mode_op(mode: RadiusMode) -> Callable[[float, float], float]:
    """The radius combiner a radius mode names: ``min`` or ``max``."""
    if mode == "min":
        return min
    if mode == "max":
        return max
    raise DomainError(f"radius_mode must be 'min' or 'max', got {_shown(mode)}")


def complement(a: CPFS) -> CPFS:
    """Swap membership and non-membership of every element; radii unchanged."""
    return CPFS(tuple((label, v.complement()) for label, v in a))


def subset(a: CPFS, b: CPFS) -> bool:
    """Return whether ``a`` is contained in ``b``.

    Elementwise: ``mu_a <= mu_b``, ``nu_a >= nu_b`` and ``r_a <= r_b``.  The
    radius comparison is per element, consistently with per-element radii.
    """
    return all(
        x.mu <= y.mu and x.nu >= y.nu and x.r <= y.r for _, x, y in _paired(a, b)
    )


def equal(a: CPFS, b: CPFS) -> bool:
    """Return whether all centers and radii coincide exactly."""
    return all(
        x.mu == y.mu and x.nu == y.nu and x.r == y.r for _, x, y in _paired(a, b)
    )


def union(a: CPFS, b: CPFS, radius_mode: RadiusMode = "min") -> CPFS:
    """Elementwise ``(max(mu), min(nu))`` with the chosen radius mode."""
    pick = radius_mode_op(radius_mode)
    return CPFS(
        tuple(
            (label, CPFV(max(x.mu, y.mu), min(x.nu, y.nu), pick(x.r, y.r)))
            for label, x, y in _paired(a, b)
        )
    )


def intersect(a: CPFS, b: CPFS, radius_mode: RadiusMode = "min") -> CPFS:
    """Elementwise ``(min(mu), max(nu))``: the complement-dual of :func:`union`."""
    return complement(union(complement(a), complement(b), radius_mode))
