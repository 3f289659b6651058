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
from typing import Sequence

from .errors import DimensionMismatch, EmptyInput
from .values import CPFV, PFV

__all__ = ["fuse", "build_circular_matrix"]


def fuse(collection: Sequence[PFV]) -> CPFV:
    """Fuse a non-empty collection of point values into one circular value."""
    k = len(collection)
    if k == 0:
        raise EmptyInput("cannot fuse an empty collection")
    mu = math.sqrt(math.fsum(p.mu * p.mu for p in collection) / k)
    nu = math.sqrt(math.fsum(p.nu * p.nu for p in collection) / k)
    r = max(math.hypot(mu - p.mu, nu - p.nu) for p in collection)
    return CPFV.of(mu, nu, min(r, 1.0))


def build_circular_matrix(
    expert_matrices: Sequence[Sequence[Sequence[PFV]]],
) -> list[list[CPFV]]:
    """Fuse a stack of expert matrices cellwise.

    ``expert_matrices[e][i][j]`` is expert ``e``'s evaluation of alternative
    ``i`` under criterion ``j``; all expert matrices must share one
    rectangular shape.  Returns the alternatives x criteria matrix of fused
    circular values.
    """
    if len(expert_matrices) == 0:
        raise EmptyInput("need at least one expert matrix")
    first = expert_matrices[0]
    n_alt, n_crit = len(first), len(first[0]) if first else 0
    _require_shape(expert_matrices, n_alt, n_crit)
    return [list(map(fuse, zip(*rows))) for rows in zip(*expert_matrices)]


def _require_shape(
    expert_matrices: Sequence[Sequence[Sequence[object]]], n_alt: int, n_crit: int
) -> None:
    """:class:`DimensionMismatch` unless every matrix is ``n_alt`` rows of ``n_crit`` cells."""
    for e, matrix in enumerate(expert_matrices):
        if len(matrix) != n_alt or any(len(row) != n_crit for row in matrix):
            raise DimensionMismatch(
                f"expert matrix {e} does not match shape {n_alt} alternatives x {n_crit} criteria"
            )
