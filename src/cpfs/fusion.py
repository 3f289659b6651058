"""Condense many point evaluations into one circular value.

Given the evaluations of several experts for the same object -- a collection
of plain :class:`~cpfs.values.PFV` -- the fused :class:`~cpfs.values.CPFV`
takes the quadratic mean of the components as its center,

    mu = sqrt(mean(mu_j**2)),   nu = sqrt(mean(nu_j**2)),

and the largest distance from that center to any input point as its radius
(clamped to 1).  The center is always a valid point: its quadratic sum is
the mean of the inputs' quadratic sums.  Every input lies inside or on the
resulting circle unless the clamp was active.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import EmptyInput
from .values import CPFV, PFV

if TYPE_CHECKING:
    from .mcdm import DecisionProblem

__all__ = ["fuse", "build_circular_matrix"]


def _fused(mus: Sequence[float], nus: Sequence[float]) -> CPFV:
    """The fused value of the non-empty point values ``(mus[j], nus[j])``."""
    k = len(mus)
    mu = math.sqrt(math.fsum(map(mul, mus, mus)) / k)
    nu = math.sqrt(math.fsum(map(mul, nus, nus)) / k)
    r = max(map(math.hypot, [mu - x for x in mus], [nu - y for y in nus]))
    return CPFV(mu, nu, min(r, 1.0))


def fuse(collection: Sequence[PFV]) -> CPFV:
    """Fuse a non-empty collection of point values into one circular value."""
    if len(collection) == 0:
        raise EmptyInput("cannot fuse an empty collection")
    return _fused([p.mu for p in collection], [p.nu for p in collection])


def build_circular_matrix(problem: DecisionProblem) -> list[list[CPFV]]:
    """Fuse a problem's expert matrices cellwise.

    Returns the alternatives x criteria matrix of fused circular values: cell
    ``(i, j)`` fuses every expert's evaluation of alternative ``i`` under
    criterion ``j``.
    """
    _, n_alt, n_crit = problem.shape
    step = n_alt * n_crit  # the cells of one expert matrix
    mu, nu = problem.mu, problem.nu
    cells = [_fused(mu[c::step], nu[c::step]) for c in range(step)]
    return [cells[i : i + n_crit] for i in range(0, step, n_crit)]
