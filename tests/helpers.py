"""Shared sampling and comparison helpers for the test suite."""

from __future__ import annotations

import math
import random

from cpfs import CPFV, PFV

__all__ = [
    "make_rng",
    "sample_pfv",
    "sample_cpfv",
    "grow",
    "assert_cpfv_close",
    "all_pairs_ranking",
]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_pfv(rng: random.Random, boundary_prob: float = 0.05) -> PFV:
    """Random valid point value; occasionally a boundary case."""
    roll = rng.random()
    if roll < boundary_prob / 2:
        mu = rng.random()
        return PFV(mu, math.sqrt(1.0 - mu * mu))
    if roll < boundary_prob:
        return rng.choice(
            [PFV(0.0, 0.0), PFV(1.0, 0.0), PFV(0.0, 1.0), PFV(rng.random(), 0.0), PFV(0.0, rng.random())]
        )
    mu = rng.random()
    nu = rng.random() * math.sqrt(1.0 - mu * mu)
    return PFV(mu, nu)


def sample_cpfv(rng: random.Random, boundary_prob: float = 0.05) -> CPFV:
    """Random valid circular value; occasionally a boundary radius."""
    center = sample_pfv(rng, boundary_prob)
    roll = rng.random()
    if roll < boundary_prob / 2:
        r = 0.0
    elif roll < boundary_prob:
        r = 1.0
    else:
        r = rng.random()
    return CPFV(center, r)


def grow(rng: random.Random, a: CPFV) -> CPFV:
    """A random value containing ``a``: mu grows, nu shrinks, r grows."""
    nu = a.nu * rng.random()
    mu_max = math.sqrt(max(0.0, 1.0 - nu * nu))
    mu = a.mu + (mu_max - a.mu) * rng.random()
    r = a.r + (1.0 - a.r) * rng.random()
    return CPFV.of(min(mu, mu_max), nu, r)


def assert_cpfv_close(a: CPFV, b: CPFV, tol: float = 1e-12) -> None:
    assert abs(a.mu - b.mu) <= tol, f"mu: {a.mu} vs {b.mu}"
    assert abs(a.nu - b.nu) <= tol, f"nu: {a.nu} vs {b.nu}"
    assert abs(a.r - b.r) <= tol, f"r: {a.r} vs {b.r}"


def all_pairs_ranking(labels, scores) -> list[tuple[str, float, bool]]:
    """``(label, score, tied)`` best-first, ties found by comparing all pairs.

    The O(n**2) rule ``Ranking.from_scores`` applied before it counted
    scores; kept as the reference its tie flags must equal.
    """
    n = len(labels)
    order = sorted(range(n), key=lambda i: -scores[i])
    tied = [any(i != j and scores[i] == scores[j] for j in range(n)) for i in range(n)]
    return [(labels[i], scores[i], tied[i]) for i in order]
