"""Algebraic operations on circular values.

Generator-driven forms (the general case, via a :class:`~cpfs.generators.GeneratorPair`):

    add(a, b)            -> < h_inv(h(mu_a)+h(mu_b)), g_inv(g(nu_a)+g(nu_b)); q_inv(q(r_a)+q(r_b)) >
    multiply(a, b)       -> < g_inv(g(mu_a)+g(mu_b)), h_inv(h(nu_a)+h(nu_b)); q_inv(q(r_a)+q(r_b)) >
    scalar_multiple(l,a) -> < h_inv(l*h(mu_a)), g_inv(l*g(nu_a)); q_inv(l*q(r_a)) >
    power(a, l)          -> < g_inv(l*g(mu_a)), h_inv(l*h(nu_a)); q_inv(l*q(r_a)) >

With the product family these collapse to the usual closed forms, e.g.
``add`` gives ``sqrt(mu_a**2 + mu_b**2 - mu_a**2 mu_b**2)`` on the membership
side and plain products elsewhere.

``add_minmax`` / ``multiply_minmax`` use the product-family center formulas
directly and take the min or max of the radii instead of combining them
through a generator.  ``add_general`` / ``multiply_general`` accept an
arbitrary t-norm (the dual t-conorm is derived internally) plus any binary
radius combiner on [0, 1].

Every product-side operation is the complement-conjugate of its sum-side
dual, because the complement only swaps ``mu`` and ``nu`` and leaves ``r``:

    multiply(a, b)         = ~add(~a, ~b)
    power(a, l)            = ~scalar_multiple(l, ~a)
    multiply_minmax(a, b)  = ~add_minmax(~a, ~b)
    multiply_general(a, b) = ~add_general(~a, ~b)

So only the sum side is written out; the product side is defined through
:meth:`~cpfs.values.CPFV.complement`, and the two agree bit for bit.

Closure holds by construction: membership/non-membership outputs satisfy the
quadratic constraint because ``T(mu_a, mu_b)**2 + S(nu_a, nu_b)**2 <= 1``
whenever the inputs are valid, so result construction goes straight through
the validating constructors.
"""

from __future__ import annotations

import math

from .aggregation import _generator_sum
from .errors import NonPositiveScalar
from .generators import BinaryOp, GeneratorPair, dual_tconorm
from .values import CPFV, RadiusMode, _real, radius_mode_op

__all__ = [
    "add",
    "multiply",
    "scalar_multiple",
    "power",
    "add_minmax",
    "multiply_minmax",
    "add_general",
    "multiply_general",
]


def _require_positive(lam: float, name: str = "lambda") -> float:
    x = _real(lam, name, NonPositiveScalar)
    if x <= 0.0:
        raise NonPositiveScalar(f"{name} must be strictly positive, got {x!r}")
    return x


def add(a: CPFV, b: CPFV, gens: GeneratorPair) -> CPFV:
    """Generator-based sum of two circular values."""
    return _generator_sum((a, b), (1.0, 1.0), gens.h, gens.g, gens.q)


def multiply(a: CPFV, b: CPFV, gens: GeneratorPair) -> CPFV:
    """Generator-based product of two circular values: ``~add(~a, ~b)``."""
    return add(a.complement(), b.complement(), gens).complement()


def scalar_multiple(lam: float, a: CPFV, gens: GeneratorPair) -> CPFV:
    """Scale a value by a strictly positive scalar (repeated addition)."""
    return _generator_sum((a,), (_require_positive(lam),), gens.h, gens.g, gens.q)


def power(a: CPFV, lam: float, gens: GeneratorPair) -> CPFV:
    """Raise a value to a strictly positive scalar: ``~scalar_multiple(lam, ~a)``."""
    return scalar_multiple(lam, a.complement(), gens).complement()


def _prod_sum(x: float, y: float) -> float:
    # sqrt(x**2 + y**2 - x**2 y**2), the product-family dual sum
    xx, yy = x * x, y * y
    return math.sqrt(max(0.0, xx + yy - xx * yy))


def add_minmax(a: CPFV, b: CPFV, radius_mode: RadiusMode = "min") -> CPFV:
    """Product-family center sum with min/max radius."""
    return CPFV(_prod_sum(a.mu, b.mu), a.nu * b.nu, radius_mode_op(radius_mode)(a.r, b.r))


def multiply_minmax(a: CPFV, b: CPFV, radius_mode: RadiusMode = "min") -> CPFV:
    """Product-family center product with min/max radius: ``~add_minmax(~a, ~b)``."""
    return add_minmax(a.complement(), b.complement(), radius_mode).complement()


def add_general(a: CPFV, b: CPFV, tnorm: BinaryOp, radius_op: BinaryOp) -> CPFV:
    """Sum under an arbitrary t-norm ``T``: < S(mu), T(nu); radius_op(r) >.

    ``S`` is the dual t-conorm of ``tnorm`` under the quadratic complement.
    ``radius_op`` may be any t-norm or t-conorm on [0, 1] (e.g. ``min`` or
    ``max``).  ``S`` goes through ``sqrt(1 - x**2)``, which cancels: a
    membership below about 1e-8 has a complement of exactly 1.0 and is lost,
    which is why :func:`add_minmax` keeps its own closed form.
    """
    tconorm = dual_tconorm(tnorm)
    return CPFV(
        tconorm(a.mu, b.mu),
        tnorm(a.nu, b.nu),
        radius_op(a.r, b.r),
    )


def multiply_general(a: CPFV, b: CPFV, tnorm: BinaryOp, radius_op: BinaryOp) -> CPFV:
    """Product under an arbitrary t-norm ``T``: < T(mu), S(nu); radius_op(r) >."""
    return add_general(a.complement(), b.complement(), tnorm, radius_op).complement()
