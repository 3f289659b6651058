"""Additive generators, the t-norms/t-conorms they induce, and duality.

A strict Archimedean t-norm ``T`` is assembled from a continuous, strictly
decreasing *additive generator* ``g`` with ``g(1) = 0`` via

    T(x, y) = g_inv(g(x) + g(y)).

In the quadratic setting the complement is ``N(a) = sqrt(1 - a**2)``, and the
t-conorm dual to ``T`` under ``N`` has the *increasing* generator

    h(t) = g(sqrt(1 - t**2)),        h_inv(s) = sqrt(1 - g_inv(s)**2),

with ``h(0) = 0``.  A :class:`GeneratorPair` bundles ``g`` (used on the
non-membership side), the induced ``h`` (membership side) and a third
generator ``q`` for the radius side, which may be of either kind.  The one
generator formula, the fold ``gen_inv(sum w_i gen(x_i))``, lives here as
``_weighted``; :mod:`cpfs.aggregation` lifts it to circular values.

Extended-value conventions make every composition total: ``g(0) = +inf`` and
``h(1) = +inf`` are represented by ``math.inf``; a finite sum with infinity
is infinity; ``g_inv(+inf) = 0`` and ``h_inv(+inf) = 1``.  The built-in
product family is evaluated in the log domain (``log1p`` / ``expm1``), so
near-boundary values do not underflow.

Only the product family ships built in:

    g(t) = -log(t**2)          (the radius generator of ``algebraic_pair("algebraic_q")``)
    h(t) = -log(1 - t**2)      (the radius generator of ``algebraic_pair("algebraic_p")``)

Any user-supplied :class:`Generator` satisfying the same contract works with
the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, UnknownGenerator
from .values import _shown

__all__ = [
    "Generator",
    "GeneratorPair",
    "algebraic_generator",
    "algebraic_dual_generator",
    "algebraic_pair",
    "pythagorean_complement",
    "tnorm_from_generator",
    "tconorm_from_generator",
    "dual_tconorm",
]

BinaryOp = Callable[[float, float], float]


@dataclass(frozen=True, slots=True)
class Generator:
    """An additive generator: a strictly monotone map [0, 1] -> [0, +inf].

    ``increasing=False`` (t-norm kind): forward(1) = 0 and forward(0) = +inf.
    ``increasing=True`` (t-conorm kind): forward(0) = 0 and forward(1) = +inf.
    ``inverse`` must undo ``forward`` on (0, 1] resp. [0, 1) and map +inf to
    the annihilated endpoint.
    """

    name: str
    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    increasing: bool = False


def _weighted(gen: Generator, xs: Sequence[float], ws: Sequence[float]) -> float:
    """``gen_inv(sum w_i gen(x_i))``: the one generator formula."""
    # weight-zero components are skipped: lim_{w->0+} w * gen(x) = 0 even when gen(x) = inf
    total = 0.0
    for x, w in zip(xs, ws):
        if w == 0.0:
            continue
        total += w * gen.forward(x)
    return gen.inverse(total)


def _alg_forward(t: float) -> float:
    # g(t) = -log(t**2) = -2 log t, evaluated without squaring to avoid underflow
    if t <= 0.0:
        return math.inf
    return -2.0 * math.log(t)


def _alg_inverse(s: float) -> float:
    return math.exp(-0.5 * s)


def _alg_dual_forward(t: float) -> float:
    # h(t) = -log(1 - t**2)
    u = t * t
    if u >= 1.0:
        return math.inf
    return -math.log1p(-u)


def _alg_dual_inverse(s: float) -> float:
    return math.sqrt(-math.expm1(-s))


def algebraic_generator() -> Generator:
    """The decreasing product-family generator g(t) = -log(t**2)."""
    return Generator("algebraic", _alg_forward, _alg_inverse, increasing=False)


def algebraic_dual_generator() -> Generator:
    """The increasing membership-side generator h(t) = -log(1 - t**2)."""
    return Generator("algebraic_dual", _alg_dual_forward, _alg_dual_inverse, increasing=True)


@dataclass(frozen=True, slots=True)
class GeneratorPair:
    """The three generators driving all value algebra.

    ``g`` acts on the non-membership side, ``h`` on the membership side
    (``h(t) = g(sqrt(1 - t**2))``), and ``q`` on the radius side.
    """

    g: Generator
    h: Generator
    q: Generator

    def __post_init__(self) -> None:
        if self.g.increasing:
            raise DomainError("g must be a decreasing (t-norm kind) generator")
        if not self.h.increasing:
            raise DomainError("h must be an increasing (t-conorm kind) generator")


def algebraic_pair(radius: str = "algebraic_q") -> GeneratorPair:
    """The product-family pair; ``q`` is its ``g`` for ``"algebraic_q"``, its ``h`` for ``"algebraic_p"``."""
    names = ("algebraic_q", "algebraic_p")
    if radius not in names:
        raise UnknownGenerator(f"unknown radius generator {_shown(radius)}; expected one of {names}")
    g, h = algebraic_generator(), algebraic_dual_generator()
    return GeneratorPair(g=g, h=h, q=g if radius == "algebraic_q" else h)


def pythagorean_complement(a: float) -> float:
    """N(a) = sqrt(1 - a**2), the involutive complement of this setting."""
    return math.sqrt(max(0.0, 1.0 - a * a))


def tnorm_from_generator(gen: Generator) -> BinaryOp:
    """The t-norm T(x, y) = gen_inv(gen(x) + gen(y)) of a decreasing generator."""
    if gen.increasing:
        raise DomainError("tnorm_from_generator expects a decreasing generator")
    return lambda x, y: _weighted(gen, (x, y), (1.0, 1.0))


def tconorm_from_generator(gen: Generator) -> BinaryOp:
    """The t-conorm induced by an increasing generator, same composition rule."""
    if not gen.increasing:
        raise DomainError("tconorm_from_generator expects an increasing generator")
    return lambda x, y: _weighted(gen, (x, y), (1.0, 1.0))


def dual_tconorm(tnorm: BinaryOp) -> BinaryOp:
    """The t-conorm dual to ``tnorm`` under the quadratic complement.

    S(x, y) = sqrt(1 - T(sqrt(1-x**2), sqrt(1-y**2))**2)
    """

    def tconorm(x: float, y: float) -> float:
        t = tnorm(pythagorean_complement(x), pythagorean_complement(y))
        return pythagorean_complement(t)

    return tconorm
