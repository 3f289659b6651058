"""Condense many point evaluations into one circular value.

Given the evaluations of several experts for the same object -- a collection
of plain :class:`~cpfs.values.PFV` -- the fused :class:`~cpfs.values.CPFV`
takes the quadratic mean of the components as its center,

    mu = sqrt(mean(mu_j**2)),   nu = sqrt(mean(nu_j**2)),

and the largest distance from that center to any input point as its radius
(clamped to 1).  The center is always a valid point: its quadratic sum is
the mean of the inputs' quadratic sums.  Every input lies inside or on the
resulting circle unless the clamp was active.

One kernel, :func:`_fused_columns`, fuses whole columns (one per expert) in
``map``/``zip`` passes, with no Python code per cell, and checks the fused
columns in whole-column passes; :func:`fuse` gives it columns of one value.
Its bits equal the cell-by-cell formula's: a center is the correctly rounded
``math.fsum`` of the same squares, a radius the largest of the same
``math.hypot`` distances (one ``max`` per cell over every column's distance
picks the same float, as ``hypot`` gives neither NaN nor ``-0.0``), and the
clamp, a no-op below 1, runs only if needed.  The fused matrix is a tuple of
rows, each a ``CPFVRow`` over slices of the three fused columns that builds a
``CPFV`` on access.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, sub, truediv
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import EmptyInput
from .values import CPFV, PFV, CPFVRow, _require_circles, _shown

if TYPE_CHECKING:
    from .mcdm import DecisionProblem

__all__ = ["fuse", "build_circular_matrix"]


def _quadratic_means(columns: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """``sqrt(fsum(x**2 for x in cell) / len(columns))`` of each cell across the columns."""
    squares = zip(*[map(mul, c, c) for c in columns])
    return tuple(map(math.sqrt, map(truediv, map(math.fsum, squares), repeat(len(columns)))))


def _fused_columns(mus: Sequence[Sequence[float]], nus: Sequence[Sequence[float]],
                   where: Callable[[int], str | None] = lambda c: None) -> CPFVRow:
    """The fused cells of the non-empty, equally long per-expert columns, as columns: cell ``c``
    fuses the points ``(mus[e][c], nus[e][c])`` and is checked as a circular value at ``where(c)``."""
    mu, nu = _quadratic_means(mus), _quadratic_means(nus)
    distances = [map(math.hypot, map(sub, mu, x), map(sub, nu, y)) for x, y in zip(mus, nus)]
    r = tuple(map(max, *distances) if len(distances) > 1 else distances[0])  # max of one float raises
    if max(r) > 1.0:  # min(x, 1.0) is x itself for every x <= 1, so it runs only when it clamps
        r = tuple(map(min, r, repeat(1.0)))
    _require_circles(mu, nu, r, where)
    return CPFVRow(mu, nu, r)


def fuse(collection: Sequence[PFV]) -> CPFV:
    """Fuse a non-empty collection of point values into one circular value."""
    if len(collection) == 0:
        raise EmptyInput("cannot fuse an empty collection")
    return _fused_columns([(p.mu,) for p in collection], [(p.nu,) for p in collection])[0]


def build_circular_matrix(problem: DecisionProblem) -> tuple[CPFVRow, ...]:
    """Fuse a problem's expert matrices cellwise.

    Returns the alternatives x criteria matrix of fused circular values as a tuple of rows, one
    :class:`~cpfs.values.CPFVRow` per alternative: cell ``(i, j)`` fuses every expert's evaluation
    of alternative ``i`` under criterion ``j``.  Each expert's block of the problem's read-only
    columns is a ``memoryview`` slice, not a copy.
    """
    alts, crits = problem.alternatives, problem.criteria
    k = len(crits)
    step = len(alts) * k  # the cells of one expert matrix
    mu, nu = problem.mu, problem.nu
    blocks = range(0, len(mu), step)
    at = lambda c: f"alternative {_shown(alts[c // k])}: criterion {_shown(crits[c % k])}"
    cells = _fused_columns([mu[b : b + step] for b in blocks], [nu[b : b + step] for b in blocks], at)
    return tuple(cells[c : c + k] for c in range(0, step, k))
