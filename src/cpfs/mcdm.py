"""The multi-criteria decision pipeline and its cost model.

Solving a :class:`DecisionProblem` runs six steps:

1.  take the problem (alternatives x criteria, one matrix per expert),
2.  with a criterion weight vector,
3.  *normalize*: swap the components of every entry under a cost criterion,
4.  *fuse* the expert matrices cellwise into one circular matrix and
    *aggregate* each alternative's row with the criterion weights,
5.  score each aggregated value by its similarity to the ideal ``<1, 0; 1>``,
6.  rank alternatives by descending score.

Scores are, by default, computed from the aggregated values *quantized to
the display precision* (two decimals, half-up).  The reference results this
pipeline reproduces were produced that way, and two alternatives can sit
close enough that quantization decides their order.  Pass
``aggregate_precision=None`` for a fully unrounded pipeline.

``complexity_estimate`` evaluates the closed-form operation-count model of
the pipeline: ``k + 2kn(6m + 7) + 25n`` for the "_q" operator variants and
``k + 4kn(3m + 4) + 27n`` for the "_p" variants, with ``k`` criteria, ``n``
alternatives and ``m`` experts.  Both are strictly increasing in each
argument, so the minimum over the domain ``k, n >= 2`` sits at ``(2, 2)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Literal, Sequence

from .aggregation import AggregationOperator, OPERATOR_NAMES, WeightVector, make_operator
from .errors import (
    DegenerateCenter,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    LengthMismatch,
    UnknownOperator,
)
from .fusion import build_circular_matrix
from .generators import GeneratorPair
from .rounding import round_half_up
from .similarity import csm_to_ideal
from .values import CPFV, PFV

__all__ = [
    "Polarity",
    "DecisionProblem",
    "RankingEntry",
    "Ranking",
    "PipelineResult",
    "normalize",
    "solve",
    "complexity_estimate",
    "complexity_sweep",
]

Polarity = Literal["benefit", "cost"]

ExpertMatrix = tuple[tuple[PFV, ...], ...]


@dataclass(frozen=True, slots=True)
class DecisionProblem:
    """A group decision problem: experts x alternatives x criteria of point values."""

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    polarity: tuple[Polarity, ...]
    weights: WeightVector
    experts: tuple[ExpertMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", tuple(str(a) for a in self.alternatives))
        object.__setattr__(self, "criteria", tuple(str(c) for c in self.criteria))
        object.__setattr__(self, "polarity", tuple(self.polarity))
        experts = tuple(tuple(tuple(row) for row in matrix) for matrix in self.experts)
        object.__setattr__(self, "experts", experts)

        if not self.alternatives:
            raise EmptyInput("need at least one alternative")
        if not self.criteria:
            raise EmptyInput("need at least one criterion")
        if not experts:
            raise EmptyInput("need at least one expert matrix")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise DimensionMismatch("alternative labels must be unique")
        if len(set(self.criteria)) != len(self.criteria):
            raise DimensionMismatch("criterion labels must be unique")
        if len(self.polarity) != len(self.criteria):
            raise LengthMismatch(
                f"got {len(self.polarity)} polarities for {len(self.criteria)} criteria"
            )
        for i, p in enumerate(self.polarity):
            if p not in ("benefit", "cost"):
                raise DomainError(f"polarity[{i}] must be 'benefit' or 'cost', got {p!r}")
        if len(self.weights) != len(self.criteria):
            raise LengthMismatch(
                f"got {len(self.weights)} weights for {len(self.criteria)} criteria"
            )
        shape = (len(self.alternatives), len(self.criteria))
        for e, matrix in enumerate(experts):
            rows = len(matrix)
            widths = {len(row) for row in matrix}
            if rows != shape[0] or widths != {shape[1]}:
                raise DimensionMismatch(
                    f"expert matrix {e} does not match shape "
                    f"{shape[0]} alternatives x {shape[1]} criteria"
                )
            for row in matrix:
                for cell in row:
                    if not isinstance(cell, PFV):
                        raise DimensionMismatch(f"expert matrix {e} contains a non-PFV cell")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(experts, alternatives, criteria)."""
        return (len(self.experts), len(self.alternatives), len(self.criteria))


@dataclass(frozen=True, slots=True)
class RankingEntry:
    label: str
    score: float
    tied: bool = False


@dataclass(frozen=True, slots=True)
class Ranking:
    """Alternatives ordered best-first by similarity score.

    Equal scores keep the input order of the alternatives and are flagged
    ``tied`` on every member of the tie group.  A tie is exact float
    equality (``==``): ``0.0`` ties with ``-0.0``, a NaN ties with nothing,
    and no tolerance is applied.  Ranking ``n`` scores costs O(n log n).
    """

    entries: tuple[RankingEntry, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    def scores(self) -> tuple[float, ...]:
        return tuple(e.score for e in self.entries)

    @property
    def best(self) -> str:
        return self.entries[0].label

    def ascending_string(self) -> str:
        """Worst-to-best chain, e.g. ``"A1 < A4 < A3 < A2 < A5"``."""
        return " < ".join(e.label for e in reversed(self.entries))

    @classmethod
    def from_scores(cls, labels: Sequence[str], scores: Sequence[float]) -> "Ranking":
        if len(scores) != len(labels):
            raise LengthMismatch(f"got {len(scores)} scores for {len(labels)} labels")
        order = sorted(range(len(labels)), key=lambda i: -scores[i])
        # Equal floats hash alike, so a score is tied when its key counts it
        # more than once.  The `s == s` test drops a NaN, which a dict would
        # match to itself by identity.  Neighbours in `order` would not do:
        # a NaN key leaves the sort order partial, and it can split a tie.
        counts = Counter(scores)
        tied = [counts[s] > 1 and s == s for s in scores]
        return cls(tuple(RankingEntry(labels[i], scores[i], tied[i]) for i in order))


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Everything the pipeline produced, for reporting."""

    problem: DecisionProblem
    normalized: DecisionProblem
    circular_matrix: tuple[tuple[CPFV, ...], ...]
    aggregated: tuple[CPFV, ...]
    scored: tuple[CPFV, ...]
    similarities: tuple[float, ...]
    ranking: Ranking
    operator: str

    def fused_centers(self) -> tuple[tuple[PFV, ...], ...]:
        return tuple(tuple(v.center for v in row) for row in self.circular_matrix)

    def fused_radii(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(v.r for v in row) for row in self.circular_matrix)


def normalize(problem: DecisionProblem) -> DecisionProblem:
    """Swap components of every entry under a cost criterion.

    Involutive; benefit criteria pass through untouched.
    """
    is_cost = [p == "cost" for p in problem.polarity]
    experts = tuple(
        tuple(
            tuple(cell.complement() if is_cost[j] else cell for j, cell in enumerate(row))
            for row in matrix
        )
        for matrix in problem.experts
    )
    return replace(problem, experts=experts)


def _quantize(v: CPFV, digits: int) -> CPFV:
    return CPFV.of(
        round_half_up(v.mu, digits),
        round_half_up(v.nu, digits),
        round_half_up(v.r, digits),
    )


def _score(label: str, v: CPFV) -> float:
    try:
        return csm_to_ideal(v)
    except DegenerateCenter as err:
        raise DegenerateCenter(f"alternative {label!r}: {err}") from err


def solve(
    problem: DecisionProblem,
    operator: str | AggregationOperator = "cpwa_q",
    *,
    gens: GeneratorPair | None = None,
    aggregate_precision: int | None = 2,
) -> PipelineResult:
    """Run the full pipeline and return the ranking with all intermediates.

    ``operator`` is one of :data:`~cpfs.aggregation.OPERATOR_NAMES` or any
    callable ``(values, weights) -> CPFV``.  ``gens`` overrides the generator
    pair of a named operator.  ``aggregate_precision`` controls the
    quantization applied to aggregated values before scoring (see module
    docstring); ``None`` disables it.
    """
    if callable(operator) and not isinstance(operator, str):
        op = operator
        op_name = getattr(operator, "__name__", "custom")
    else:
        op = make_operator(operator, gens)
        op_name = operator

    normalized = normalize(problem)
    circular = build_circular_matrix(normalized.experts)
    aggregated = tuple(op(row, problem.weights) for row in circular)
    if aggregate_precision is None:
        scored = aggregated
    else:
        scored = tuple(_quantize(v, aggregate_precision) for v in aggregated)
    similarities = tuple(_score(label, v) for label, v in zip(problem.alternatives, scored))
    ranking = Ranking.from_scores(problem.alternatives, similarities)
    return PipelineResult(
        problem=problem,
        normalized=normalized,
        circular_matrix=tuple(tuple(row) for row in circular),
        aggregated=aggregated,
        scored=scored,
        similarities=similarities,
        ranking=ranking,
        operator=op_name,
    )


def _require_count(value: int, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def complexity_estimate(k: int, n: int, m: int, operator: str = "cpwa_q") -> int:
    """Operation count of one pipeline run with ``k`` criteria, ``n``
    alternatives and ``m`` experts under the given operator variant."""
    if operator not in OPERATOR_NAMES:
        raise UnknownOperator(f"unknown operator {operator!r}; expected one of {OPERATOR_NAMES}")
    k = _require_count(k, "k (criteria)", 2)
    n = _require_count(n, "n (alternatives)", 2)
    m = _require_count(m, "m (experts)", 1)
    if operator.endswith("_q"):
        return k + 2 * k * n * (6 * m + 7) + 25 * n
    return k + 4 * k * n * (3 * m + 4) + 27 * n


def complexity_sweep(
    k_range: Sequence[int],
    n_range: Sequence[int],
    m_range: Sequence[int],
    operator: str = "cpwa_q",
) -> list[tuple[int, int, int, int]]:
    """Grid of ``(k, n, m, count)`` rows, suitable for plotting."""
    return [
        (k, n, m, complexity_estimate(k, n, m, operator))
        for k in k_range
        for n in n_range
        for m in m_range
    ]
