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

A problem is normalized and fused once, on its first solve: every later solve
of the same object shares its ``normalized`` and ``circular_matrix``.  A kept
problem keeps them in memory, with the generator columns :mod:`cpfs.aggregation`
folds: at most six ``array('d')``, 8 B per fused cell each.  A write into ``mu``
or ``nu`` is detected, bit for bit (``-0.0`` for ``0.0`` too), and fuses again.

``complexity_estimate`` evaluates the closed-form operation-count model of
the pipeline: ``k + 2kn(6m + 7) + 25n`` for the "_q" operator variants and
``k + 4kn(3m + 4) + 27n`` for the "_p" variants, with ``k`` criteria, ``n``
alternatives and ``m`` experts.  Both are strictly increasing in each
argument, so the minimum over the domain ``k, n >= 2`` sits at ``(2, 2)``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from typing import Literal, Sequence

from .aggregation import AggregationOperator, WeightVector, _folded, _operator_name, make_operator
from .errors import CircularFuzzyError, DimensionMismatch, DomainError, EmptyInput, LengthMismatch
from .fusion import build_circular_matrix
from .rounding import require_precision, round_half_up
from .similarity import csm_to_ideal
from .values import CPFV, PFV, CPFVRow, _labels, _require_count, _shown

__all__ = [
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

@dataclass(frozen=True, slots=True, init=False)
class DecisionProblem:
    """A group decision problem: experts x alternatives x criteria of point values.

    Built from ``experts``, nested as ``experts[e][i][j]``, expert ``e``'s
    evaluation of alternative ``i`` under criterion ``j``.  The cells are held
    as two float columns, ``mu`` and ``nu``, in that expert -> alternative ->
    criterion order, and only there.  An argument of the wrong kind, such as a
    number where a sequence belongs, raises Python's own ``TypeError``; a value
    of the right kind that breaks a rule raises a located error.
    ``weights`` may be any sequence of numbers; it is checked and stored as a
    :class:`~cpfs.aggregation.WeightVector`.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    polarity: tuple[Polarity, ...]
    weights: WeightVector
    mu: array = field(hash=False)
    nu: array = field(hash=False)
    _fused: tuple | None = field(default=None, compare=False, repr=False)  # see _fused_once

    def __init__(self, alternatives: Sequence[str], criteria: Sequence[str], polarity: Sequence[Polarity],
                 weights: Sequence[float], experts: Sequence[Sequence[Sequence[PFV]]]) -> None:
        alternatives, criteria = tuple(alternatives), tuple(criteria)
        n, k = len(alternatives), len(criteria)
        cells = []
        for e, matrix in enumerate(experts):
            where, rows = f"experts[{e}]", [*map(tuple, matrix)]
            if len(rows) != n or any(len(row) != k for row in rows):
                raise DimensionMismatch(f"expert matrix {e} does not match shape {n} alternatives x {k} criteria",
                                        location=where)
            is_pfv = [*map(isinstance, chain.from_iterable(rows), repeat(PFV))]
            if not all(is_pfv):
                c = is_pfv.index(False)
                raise DimensionMismatch(f"expert matrix {e} contains a non-PFV cell",
                                        location=f"{where}[{c // k}][{c % k}]")
            cells += chain.from_iterable(rows)
        self._set(alternatives, criteria, polarity, weights,
                  array("d", [c.mu for c in cells]), array("d", [c.nu for c in cells]))

    @classmethod
    def _of_columns(cls, *values: object) -> "DecisionProblem":
        """The problem of these field values, in field order.  The columns must
        hold valid point values of whole expert matrices; they are not checked."""
        problem = object.__new__(cls)
        problem._set(*values)
        return problem

    def __reduce__(self) -> tuple:  # a copy or pickle is fused again; see _fused_once
        return DecisionProblem._of_columns, tuple(map(self.__getattribute__, _FIELDS))

    def _set(self, *values: object) -> None:
        for name, value in zip(_FIELDS, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_fused", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("alternatives", "criteria"):
            object.__setattr__(self, name, _labels(getattr(self, name), name, DimensionMismatch))
        object.__setattr__(self, "polarity", tuple(self.polarity))
        if not self.alternatives:
            raise EmptyInput("need at least one alternative", location="alternatives")
        if not self.criteria:
            raise EmptyInput("need at least one criterion", location="criteria")
        if not self.mu:
            raise EmptyInput("need at least one expert matrix", location="experts")
        if not isinstance(self.weights, WeightVector):
            object.__setattr__(self, "weights", WeightVector(tuple(self.weights)))
        if len(self.polarity) != len(self.criteria):
            raise LengthMismatch(f"got {len(self.polarity)} for {len(self.criteria)} criteria",
                                 location="polarity")
        for i, p in enumerate(self.polarity):
            if p not in ("benefit", "cost"):
                raise DomainError(f"must be 'benefit' or 'cost', got {_shown(p)}", location=f"polarity[{i}]")
        if len(self.weights) != len(self.criteria):
            raise LengthMismatch(f"got {len(self.weights)} for {len(self.criteria)} criteria",
                                 location="weights")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(experts, alternatives, criteria)."""
        n, k = len(self.alternatives), len(self.criteria)
        return (len(self.mu) // (n * k), n, k)


_FIELDS = tuple(f.name for f in fields(DecisionProblem) if f.compare)  # all but the memo


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
    """Everything the pipeline produced, for reporting.  ``circular_matrix`` holds one
    :class:`~cpfs.values.CPFVRow` per alternative, a view over the fused float columns."""

    problem: DecisionProblem
    normalized: DecisionProblem
    circular_matrix: tuple[CPFVRow, ...]
    aggregated: tuple[CPFV, ...]
    scored: tuple[CPFV, ...]
    similarities: tuple[float, ...]
    ranking: Ranking
    operator: str


def normalize(problem: DecisionProblem) -> DecisionProblem:
    """Swap components of every entry under a cost criterion.

    Involutive; benefit criteria pass through untouched.  Each swapped entry
    equals ``cell.complement()`` bit for bit.
    """
    old_mu, old_nu = problem.mu, problem.nu
    mu, nu = old_mu[:], old_nu[:]
    m = len(problem.criteria)
    for j, polarity in enumerate(problem.polarity):
        if polarity == "cost":
            mu[j::m], nu[j::m] = old_nu[j::m], old_mu[j::m]
    return DecisionProblem._of_columns(problem.alternatives, problem.criteria, problem.polarity,
                                       problem.weights, mu, nu)


def _fused_once(problem: DecisionProblem) -> tuple[DecisionProblem, tuple[CPFVRow, ...], dict]:
    """The normalized problem, fused matrix and generator columns, kept in the problem while its columns hold
    the normalized cells, each cost column swapped back, bit for bit: ``array ==`` takes ``-0.0`` for ``0.0``."""
    memo, k = problem._fused, len(problem.criteria)
    if memo is not None:
        columns = problem.mu, problem.nu, memo[0].mu, memo[0].nu
        mu, nu, n_mu, n_nu = (memoryview(c).cast("B").cast("Q") for c in columns)
        pairs = ((n_nu, n_mu) if p == "cost" else (n_mu, n_nu) for p in problem.polarity)
        if all(mu[j::k] == x[j::k] and nu[j::k] == y[j::k] for j, (x, y) in enumerate(pairs)):
            return memo
    normalized = normalize(problem)
    object.__setattr__(problem, "_fused", memo := (normalized, build_circular_matrix(normalized), {}))
    return memo


def solve(
    problem: DecisionProblem,
    operator: str | AggregationOperator = "cpwa_q",
    *,
    aggregate_precision: int | None = 2,
) -> PipelineResult:
    """Run the full pipeline and return the ranking with all intermediates.

    ``operator`` is an operator name (see :func:`~cpfs.aggregation.make_operator`)
    or any callable ``(values, weights) -> CPFV``, such as
    ``make_operator("cpwa_q", gens)`` for other generators.  The result's
    ``operator`` is the callable's ``__name__``, or ``"custom"`` if it has none.
    ``aggregate_precision`` controls the quantization applied to aggregated
    values before scoring (see module docstring); ``None`` disables it.  An
    error in one alternative's aggregate, quantization or score names it.
    """
    op = operator if callable(operator) else make_operator(operator)
    if aggregate_precision is not None:
        require_precision(aggregate_precision)

    normalized, circular, kept = _fused_once(problem)
    aggregates = _folded(op, circular, problem.weights, kept) or map(op, circular, repeat(problem.weights))
    aggregated, scored, similarities = [], [], []
    for label in problem.alternatives:
        try:
            v = next(aggregates)
            aggregated.append(v)
            if aggregate_precision is not None:
                # Rounding half-up can carry a value on the unit circle out of the disc.
                v = CPFV(*(round_half_up(x, aggregate_precision) for x in v.as_tuple()))
            scored.append(v)
            similarities.append(csm_to_ideal(v))
        except CircularFuzzyError as err:
            where = f"alternative {_shown(label)}"
            err.location = where if err.location is None else f"{where}: {err.location}"
            raise
    ranking = Ranking.from_scores(problem.alternatives, similarities)
    return PipelineResult(
        problem=problem,
        normalized=normalized,
        circular_matrix=circular,
        aggregated=tuple(aggregated),
        scored=tuple(scored),
        similarities=tuple(similarities),
        ranking=ranking,
        operator=getattr(op, "__name__", "custom"),
    )


def complexity_estimate(k: int, n: int, m: int, operator: str = "cpwa_q") -> int:
    """Operation count of one pipeline run with ``k`` criteria, ``n``
    alternatives and ``m`` experts under the given operator variant."""
    operator = _operator_name(operator)
    k = _require_count(k, "k (criteria)", 2, DomainError)
    n = _require_count(n, "n (alternatives)", 2, DomainError)
    m = _require_count(m, "m (experts)", 1, DomainError)
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
    operator = _operator_name(operator)
    return [(k, n, m, complexity_estimate(k, n, m, operator)) for k in k_range for n in n_range for m in m_range]
