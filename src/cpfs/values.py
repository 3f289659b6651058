"""Core value types and set-theoretic operations.

Three immutable types build on each other:

- :class:`PFV` -- a membership / non-membership pair ``(mu, nu)`` on the unit
  interval constrained by ``mu**2 + nu**2 <= 1``.
- :class:`CPFV` -- a :class:`PFV` center together with a radius ``r`` in
  ``[0, 1]``; the circle models the uncertainty of the evaluation around the
  center.  The atomic value of the whole package.
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
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .errors import (
    ConstraintViolation,
    OutOfRange,
    RadiusOutOfRange,
    UniverseMismatch,
)

__all__ = [
    "UNIT_SLACK",
    "PFV",
    "CPFV",
    "CPFS",
    "RadiusMode",
    "validate_pfv",
    "validate_cpfv",
    "complement",
    "subset",
    "equal",
    "union",
    "intersect",
]

#: Slack on the quadratic constraint, covering decimal inputs on the boundary.
UNIT_SLACK = 1e-9

RadiusMode = Literal["min", "max"]


def _require_component(value: float, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise OutOfRange(f"{name} must be a real number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise OutOfRange(f"{name} must be finite, got {x!r}")
    if x < 0.0 or x > 1.0:
        raise OutOfRange(f"{name} must lie in [0, 1], got {x}")
    return x


@dataclass(frozen=True, slots=True)
class PFV:
    """A membership / non-membership pair with quadratic constraint.

    Invariants (checked on construction):

    - ``0 <= mu <= 1`` and ``0 <= nu <= 1``
    - ``mu**2 + nu**2 <= 1 + UNIT_SLACK``
    """

    mu: float
    nu: float

    def __post_init__(self) -> None:
        mu, nu = self.mu, self.nu
        # A float already in [0, 1] is what _require_component would return
        # unchanged, so it skips the check and the store.  NaN fails the
        # comparison and takes the full check.
        if type(mu) is not float or not 0.0 <= mu <= 1.0:
            mu = _require_component(mu, "mu")
            object.__setattr__(self, "mu", mu)
        if type(nu) is not float or not 0.0 <= nu <= 1.0:
            nu = _require_component(nu, "nu")
            object.__setattr__(self, "nu", nu)
        s = mu * mu + nu * nu
        if s > 1.0 + UNIT_SLACK:
            raise ConstraintViolation(
                f"mu**2 + nu**2 must not exceed 1, got {s} for mu={mu}, nu={nu}"
            )

    @property
    def quadratic_sum(self) -> float:
        return self.mu * self.mu + self.nu * self.nu

    def complement(self) -> "PFV":
        """Swap the membership and non-membership components."""
        return PFV(self.nu, self.mu)


@dataclass(frozen=True, slots=True)
class CPFV:
    """A :class:`PFV` center plus a radius in ``[0, 1]``."""

    center: PFV
    r: float

    def __post_init__(self) -> None:
        if not isinstance(self.center, PFV):
            raise OutOfRange(f"center must be a PFV, got {self.center!r}")
        r = self.r
        if type(r) is not float or not 0.0 <= r <= 1.0:  # as in PFV
            if not isinstance(r, (int, float)) or isinstance(r, bool):
                raise RadiusOutOfRange(f"radius must be a real number, got {r!r}")
            r = float(r)
            if not math.isfinite(r) or r < 0.0 or r > 1.0:
                raise RadiusOutOfRange(f"radius must lie in [0, 1], got {r!r}")
            object.__setattr__(self, "r", r)

    @classmethod
    def of(cls, mu: float, nu: float, r: float) -> "CPFV":
        """Build from raw components, validating everything."""
        return cls(PFV(mu, nu), r)

    @property
    def mu(self) -> float:
        return self.center.mu

    @property
    def nu(self) -> float:
        return self.center.nu

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.center.mu, self.center.nu, self.r)


def validate_pfv(mu: float, nu: float) -> PFV:
    """Validate components and return a :class:`PFV`.

    Raises :class:`~cpfs.errors.OutOfRange` if a component leaves [0, 1] and
    :class:`~cpfs.errors.ConstraintViolation` if the quadratic sum exceeds
    the slack-extended bound.
    """
    return PFV(mu, nu)


def validate_cpfv(mu: float, nu: float, r: float) -> CPFV:
    """Validate components and return a :class:`CPFV`.

    Raises as :func:`validate_pfv`, plus
    :class:`~cpfs.errors.RadiusOutOfRange` for a radius outside [0, 1].
    """
    return CPFV.of(mu, nu, r)


@dataclass(frozen=True, slots=True)
class CPFS:
    """An ordered family of labelled :class:`CPFV` over a finite universe."""

    elements: tuple[tuple[str, CPFV], ...]

    def __post_init__(self) -> None:
        elems = tuple((str(label), value) for label, value in self.elements)
        for label, value in elems:
            if not isinstance(value, CPFV):
                raise OutOfRange(f"element {label!r} must be a CPFV, got {value!r}")
        labels = [label for label, _ in elems]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise UniverseMismatch(f"element labels must be unique, duplicated: {dupes}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_components(cls, rows: Iterable[tuple[str, float, float, float]]) -> "CPFS":
        """Build from ``(label, mu, nu, r)`` rows."""
        return cls(tuple((label, CPFV.of(mu, nu, r)) for label, mu, nu, r in rows))

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


def _mode_pick(mode: RadiusMode, x: float, y: float) -> float:
    if mode == "min":
        return min(x, y)
    if mode == "max":
        return max(x, y)
    raise ValueError(f"radius_mode must be 'min' or 'max', got {mode!r}")


def complement(a: CPFS) -> CPFS:
    """Swap membership and non-membership of every element; radii unchanged."""
    return CPFS(tuple((label, CPFV(v.center.complement(), v.r)) for label, v in a))


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
    return CPFS(
        tuple(
            (label, CPFV.of(max(x.mu, y.mu), min(x.nu, y.nu), _mode_pick(radius_mode, x.r, y.r)))
            for label, x, y in _paired(a, b)
        )
    )


def intersect(a: CPFS, b: CPFS, radius_mode: RadiusMode = "min") -> CPFS:
    """Elementwise ``(min(mu), max(nu))`` with the chosen radius mode."""
    return CPFS(
        tuple(
            (label, CPFV.of(min(x.mu, y.mu), max(x.nu, y.nu), _mode_pick(radius_mode, x.r, y.r)))
            for label, x, y in _paired(a, b)
        )
    )
