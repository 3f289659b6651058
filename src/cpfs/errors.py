"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`CircularFuzzyError`,
so callers can catch the whole family with one handler.  Concrete classes
also derive from the closest builtin (usually ``ValueError``) to keep
generic ``except ValueError`` code working.
"""

from __future__ import annotations

__all__ = [
    "CircularFuzzyError",
    "OutOfRange",
    "ConstraintViolation",
    "RadiusOutOfRange",
    "UniverseMismatch",
    "NonPositiveScalar",
    "EmptyInput",
    "LengthMismatch",
    "InvalidWeights",
    "DegenerateCenter",
    "DimensionMismatch",
    "UnknownOperator",
    "UnknownGenerator",
    "DomainError",
    "ParseError",
]


class CircularFuzzyError(Exception):
    """Base class for all errors raised by this package.

    ``str()`` is ``[source: ][location: ]message``: ``location`` names where the
    error arose and only a :class:`ParseError` has a ``source``; each may be ``None``."""

    def __init__(self, *args: object, location: str | None = None) -> None:
        super().__init__(*args)
        self.location = location

    def __str__(self) -> str:  # not KeyError's, which would quote the message
        parts = (getattr(self, "source", None), self.location, Exception.__str__(self))
        return ": ".join(part for part in parts if part is not None)


class OutOfRange(CircularFuzzyError, ValueError):
    """A membership or non-membership component lies outside [0, 1]."""


class ConstraintViolation(CircularFuzzyError, ValueError):
    """The quadratic constraint mu**2 + nu**2 <= 1 is violated."""


class RadiusOutOfRange(CircularFuzzyError, ValueError):
    """A radius lies outside [0, 1]."""


class UniverseMismatch(CircularFuzzyError, ValueError):
    """Two sets are defined over different (or differently ordered) universes."""


class NonPositiveScalar(CircularFuzzyError, ValueError):
    """A scalar parameter that must be strictly positive is not."""


class EmptyInput(CircularFuzzyError, ValueError):
    """An operation that needs at least one value received none."""


class LengthMismatch(CircularFuzzyError, ValueError):
    """Parallel sequences (values vs. weights, labels vs. columns) differ in length."""


class InvalidWeights(CircularFuzzyError, ValueError):
    """A weight vector has components outside [0, 1] or does not sum to one."""


class DegenerateCenter(CircularFuzzyError, ZeroDivisionError):
    """A similarity was requested for a value whose center is (0, 0)."""


class DimensionMismatch(CircularFuzzyError, ValueError):
    """Matrices that must share a shape do not."""


class UnknownOperator(CircularFuzzyError, KeyError):
    """An aggregation operator identifier is not registered."""


class UnknownGenerator(CircularFuzzyError, KeyError):
    """A generator identifier is not registered."""


class DomainError(CircularFuzzyError, ValueError):
    """An argument lies outside the domain of an operation or formula."""


class ParseError(CircularFuzzyError, ValueError):
    """An input document could not be parsed or validated.

    ``location`` is a path into the offending document, e.g. ``"experts[1][3][0]"``,
    and ``source`` names the document, e.g. its file path.
    """

    def __init__(self, message: str, *, location: str | None = None, source: str | None = None):
        super().__init__(message, location=location)
        self.source = source
