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
``map``/``zip`` passes, with no Python code per cell; :func:`fuse` gives it
columns of one value.  Its bits equal the cell-by-cell formula's: a center
is the correctly rounded ``math.fsum`` of the same squares, a radius the
largest of the same ``math.hypot`` distances (pairwise ``max`` picks the
same non-NaN float), and the clamp, a no-op below 1, runs only if needed.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import mul, sub, truediv
from typing import TYPE_CHECKING, Sequence

from .errors import EmptyInput
from .values import CPFV, PFV

if TYPE_CHECKING:
    from .mcdm import DecisionProblem

__all__ = ["fuse", "build_circular_matrix"]


def _quadratic_means(columns: Sequence[Sequence[float]]) -> list[float]:
    """``sqrt(fsum(x**2 for x in cell) / len(columns))`` of each cell across the columns."""
    squares = zip(*[map(mul, c, c) for c in columns])
    return list(map(math.sqrt, map(truediv, map(math.fsum, squares), repeat(len(columns)))))


def _fused_columns(mus: Sequence[Sequence[float]], nus: Sequence[Sequence[float]]) -> tuple[CPFV, ...]:
    """The fused value of every cell ``c`` of the non-empty, equally long
    per-expert columns: cell ``c`` fuses the points ``(mus[e][c], nus[e][c])``."""
    mu, nu = _quadratic_means(mus), _quadratic_means(nus)
    distances = [map(math.hypot, map(sub, mu, x), map(sub, nu, y)) for x, y in zip(mus, nus)]
    r = list(reduce(lambda a, b: map(max, a, b), distances))
    if max(r) > 1.0:  # min(x, 1.0) is x itself for every x <= 1, so it runs only when it clamps
        r = list(map(min, r, repeat(1.0)))
    return tuple(map(CPFV, mu, nu, r))


def fuse(collection: Sequence[PFV]) -> CPFV:
    """Fuse a non-empty collection of point values into one circular value."""
    if len(collection) == 0:
        raise EmptyInput("cannot fuse an empty collection")
    return _fused_columns([(p.mu,) for p in collection], [(p.nu,) for p in collection])[0]


def build_circular_matrix(problem: DecisionProblem) -> tuple[tuple[CPFV, ...], ...]:
    """Fuse a problem's expert matrices cellwise.

    Returns the alternatives x criteria matrix of fused circular values, a
    tuple of row tuples: cell ``(i, j)`` fuses every expert's evaluation of
    alternative ``i`` under criterion ``j``.  Each expert's block of the
    problem's columns is read through a ``memoryview``, not copied.
    """
    _, n_alt, n_crit = problem.shape
    step = n_alt * n_crit  # the cells of one expert matrix
    mu, nu = memoryview(problem.mu), memoryview(problem.nu)
    blocks = range(0, len(mu), step)
    cells = _fused_columns([mu[b : b + step] for b in blocks], [nu[b : b + step] for b in blocks])
    return tuple(cells[i : i + n_crit] for i in range(0, step, n_crit))
