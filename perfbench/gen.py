"""Seeded input generator for the benchmark workloads.

Every cell is a ``(mu, nu)`` pair on the two-decimal grid inside the unit
disc.  Components are drawn as integers ``a, b`` in hundredths with
``a*a + b*b <= 10000``; ``b`` is bounded with a floor (``isqrt``), never a
round, since rounding gives points such as ``(0.59, 0.81)`` whose squared sum
1.0042 the value type rejects.

Interior cells have both components in ``(0, 1)`` and lie strictly inside
the disc.  Boundary cells come from :data:`BOUNDARY`, a fixed set of points
with a component equal to 0 or 1, or on the unit circle; it excludes the
``(0, 0)`` center, so no aggregate can be degenerate.  A boundary position
holds the same point for every expert, so the fused cell is that exact
point with radius 0 and the aggregation meets the infinite generator values
(``g(0) = inf``, ``h(1) = inf``, ``q(0) = inf``) for real.

The generator draws from its own ``random.Random(seed)``; the same seed and
shape always give the same problem.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Boundary points, in hundredths: the axes' ends, points on the axes and
#: two-decimal points exactly on the unit circle.  ``(0, 0)`` is excluded.
BOUNDARY = (
    (100, 0), (0, 100), (50, 0), (0, 50),
    (60, 80), (80, 60), (28, 96), (96, 28),
)

#: Share of the criteria that are cost criteria.
COST_FRAC = 0.5


@dataclass(frozen=True)
class Params:
    """A workload's generator settings; with the seed they fix the problem."""

    experts: int
    alternatives: int
    criteria: int
    boundary_frac: float = 0.0
    zero_weight: bool = False

    @property
    def cells(self) -> int:
        return self.experts * self.alternatives * self.criteria


def _interior(rng: random.Random) -> tuple[int, int]:
    a = rng.randint(1, 99)
    return a, rng.randint(1, math.isqrt(9999 - a * a))


def _cell(hundredths: tuple[int, int]) -> list[float]:
    a, b = hundredths
    return [a / 100, b / 100]


def _weights(rng: random.Random, params: Params) -> list[float]:
    raw = [rng.randint(1, 1000) for _ in range(params.criteria)]
    if params.zero_weight:
        raw[rng.randrange(params.criteria)] = 0
    total = sum(raw)
    return [x / total for x in raw]


def generate(params: Params, seed: int) -> dict:
    """A problem document (the JSON shape ``cpfs.serialize`` parses).

    Cells are ``[mu, nu]`` lists of floats; ``experts[e][i][j]`` is expert
    ``e`` on alternative ``i`` under criterion ``j``.
    """
    rng = random.Random(seed)
    k, n, m = params.experts, params.alternatives, params.criteria
    cost = set(rng.sample(range(m), round(COST_FRAC * m)))
    polarity = ["cost" if j in cost else "benefit" for j in range(m)]
    weights = _weights(rng, params)
    boundary = [
        [BOUNDARY[rng.randrange(len(BOUNDARY))] if rng.random() < params.boundary_frac else None
         for _ in range(m)]
        for _ in range(n)
    ]
    experts = [
        [[_cell(boundary[i][j] or _interior(rng)) for j in range(m)] for i in range(n)]
        for _ in range(k)
    ]
    return {
        "alternatives": [f"A{i + 1}" for i in range(n)],
        "criteria": [f"C{j + 1}" for j in range(m)],
        "polarity": polarity,
        "weights": weights,
        "experts": experts,
    }

