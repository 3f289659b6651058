"""Weighted aggregation of circular values.

Two operators, each parameterised by a :class:`~cpfs.generators.GeneratorPair`:

    cpwa(values, w)  -> < h_inv(sum w_i h(mu_i)), g_inv(sum w_i g(nu_i)); q_inv(sum w_i q(r_i)) >
    cpwg(values, w)  -> < g_inv(sum w_i g(mu_i)), h_inv(sum w_i h(nu_i)); q_inv(sum w_i q(r_i)) >

``cpwa`` is the weighted arithmetic (addition-folding) operator, ``cpwg`` the
weighted geometric (multiplication-folding) one; either equals the left fold
of the corresponding pairwise operation over scalar multiples / powers.
They are complement-duals, ``cpwg(values) = ~cpwa(~values)``, since the
complement swaps ``mu`` and ``nu``.  Both call one kernel, which lifts the
generator fold ``generators._weighted`` to circular values: ``cpwa`` with the
membership/non-membership generators ``(h, g)``, ``cpwg`` with ``(g, h)``,
so no value is complemented on the way.  :func:`~cpfs.algebra.add` and
:func:`~cpfs.algebra.scalar_multiple` are the same kernel with weights
``(1, 1)`` and ``(lambda,)``.

With the product family these reduce to

    cpwa: < sqrt(1 - prod (1-mu_i**2)**w_i), prod nu_i**w_i; ... >
    cpwg: < prod mu_i**w_i, sqrt(1 - prod (1-nu_i**2)**w_i); ... >

and the radius component follows the ``q`` generator: product-like for the
decreasing kind ("algebraic_q"), dual-sum-like for the increasing kind
("algebraic_p").

Weight handling:

- Weights must lie in [0, 1] and sum to one within ``WEIGHT_SUM_TOL``.
  Nothing is renormalised silently; bad weights are rejected.
- A component with weight exactly zero is skipped, matching the w -> 0+
  limit.  (Otherwise ``0 * inf`` would be indeterminate when the component
  value sits on an annihilating boundary, e.g. a zero radius under the
  decreasing radius generator.)
- A zero radius with positive weight forces a zero output radius under the
  decreasing radius generator; this falls out of the extended-value
  conventions, no special case.

The four operator variants, named in :data:`OPERATOR_NAMES` (or ``q``/``p`` for
``cpwa_q``/``cpwa_p``), are built by :func:`make_operator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .errors import EmptyInput, InvalidWeights, LengthMismatch, UnknownOperator
from .generators import Generator, GeneratorPair, _weighted, algebraic_pair
from .values import CPFV, CPFVRow, _require_component, _require_count, _shown

__all__ = [
    "WEIGHT_SUM_TOL",
    "WeightVector",
    "cpwa",
    "cpwg",
    "OPERATOR_NAMES",
    "make_operator",
]

#: Tolerance on the sum-to-one invariant of weight vectors.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class WeightVector:
    """A vector of weights in [0, 1] summing to one within tolerance."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = []
        for i, w in enumerate(self.weights):
            try:
                ws.append(_require_component(w, "weight", InvalidWeights))
            except InvalidWeights as err:
                err.location = f"weights[{i}]"
                raise
        if not ws:
            raise InvalidWeights("must be non-empty", location="weights")
        total = math.fsum(ws)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(f"must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}", location="weights")
        object.__setattr__(self, "weights", tuple(ws))

    @classmethod
    def of(cls, *weights: float) -> "WeightVector":
        return cls(tuple(weights))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        n = _require_count(n, "the length of a uniform weight vector", 1, InvalidWeights)
        return cls(tuple(1.0 / n for _ in range(n)))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)


def _checked(values: Sequence[CPFV], w: WeightVector) -> tuple[Sequence[CPFV], tuple[float, ...]]:
    if len(values) == 0:
        raise EmptyInput("aggregation needs at least one value")
    if not isinstance(w, WeightVector):
        w = WeightVector(tuple(w))
    if len(values) != len(w):
        raise LengthMismatch(f"got {len(values)} values but {len(w)} weights")
    return values, w.weights


def _generator_sum(
    values: Sequence[CPFV], ws: Sequence[float], mu_gen: Generator, nu_gen: Generator, r_gen: Generator
) -> CPFV:
    """``< mu_gen_inv(sum w_i mu_gen(mu_i)), ...; r_gen_inv(sum w_i r_gen(r_i)) >``: the generator
    formula on circles, behind the weighted operators, sums and scalar multiples.  It reads
    the components of a :class:`~cpfs.values.CPFVRow`, and makes any other values one."""
    row = values if type(values) is CPFVRow else CPFVRow.of(values)
    return CPFV(_weighted(mu_gen, row.mu, ws), _weighted(nu_gen, row.nu, ws), _weighted(r_gen, row.r, ws))


def cpwa(values: Sequence[CPFV], w: WeightVector, gens: GeneratorPair | None = None) -> CPFV:
    """Weighted arithmetic aggregation of circular values."""
    gens = gens if gens is not None else algebraic_pair()
    return _generator_sum(*_checked(values, w), gens.h, gens.g, gens.q)


def cpwg(values: Sequence[CPFV], w: WeightVector, gens: GeneratorPair | None = None) -> CPFV:
    """Weighted geometric aggregation of circular values: ``~cpwa(~values)``."""
    gens = gens if gens is not None else algebraic_pair()
    return _generator_sum(*_checked(values, w), gens.g, gens.h, gens.q)


#: Identifiers of the four built-in operator variants.
OPERATOR_NAMES = ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p")
#: Each operator name with the identifier it denotes; ``q``, ``p`` are short for ``cpwa_q``, ``cpwa_p``.
_OPERATORS = {**{name: name for name in OPERATOR_NAMES}, "q": "cpwa_q", "p": "cpwa_p"}

AggregationOperator = Callable[[Sequence[CPFV], WeightVector], CPFV]


def _operator_name(name: str) -> str:
    """The identifier an operator name denotes, or :class:`UnknownOperator`: the one
    rule for operator names.  A non-string is rejected before it is looked up."""
    if isinstance(name, str) and name in _OPERATORS:
        return _OPERATORS[name]
    raise UnknownOperator(f"unknown operator {_shown(name)}; expected one of {', '.join(_OPERATORS)}")


def make_operator(name: str, gens: GeneratorPair | None = None) -> AggregationOperator:
    """Build an aggregation callable from one of :data:`OPERATOR_NAMES` or ``q``/``p``.

    The suffix picks the radius generator ("_q" decreasing, "_p" increasing);
    an explicit ``gens`` overrides it entirely.  The callable's ``__name__`` is
    the identifier, e.g. ``"cpwa_q"`` for ``"q"``.
    """
    name = _operator_name(name)
    if gens is None:
        gens = algebraic_pair("algebraic_q" if name.endswith("_q") else "algebraic_p")
    operator = partial(cpwa if name.startswith("cpwa") else cpwg, gens=gens)
    operator.__name__ = name
    return operator

