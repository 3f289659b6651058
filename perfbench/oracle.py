"""Closed-form recomputation of pipeline values, independent of cpfs.

For one alternative the oracle recomputes, from the raw problem document:

- the normalized cells (components swapped under cost criteria),
- the fused row: quadratic-mean center and largest distance to any input,
- the aggregate, with the product-family closed forms
  ``cpwa: < sqrt(1 - prod (1-mu^2)^w), prod nu^w >`` and
  ``cpwg: < prod mu^w, sqrt(1 - prod (1-nu^2)^w) >``; the radius is
  ``prod r^w`` for "_q" and ``sqrt(1 - prod (1-r^2)^w)`` for "_p",
- the half-up quantized value that is scored,
- the similarity to the ideal ``<1, 0; 1>``: ``(mu^2 / |(mu^2, nu^2)| + r) / 2``.

Powers are plain ``x ** w``: ``0.0 ** 0.0 == 1.0`` gives the zero-weight skip
and ``0.0 ** w == 0.0`` the infinite-generator limits, with no special case.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

TOL = 1e-12

EXPECTED_CASE_STUDY = {
    "cpwa_q": "A1 < A4 < A3 < A2 < A5",
    "cpwa_p": "A1 < A4 < A3 < A2 < A5",
    "cpwg_q": "A1 < A4 < A3 < A5 < A2",
    "cpwg_p": "A1 < A4 < A3 < A5 < A2",
}


def fused_row(doc: dict, i: int) -> list[tuple[float, float, float]]:
    """Fused ``(mu, nu, r)`` of every criterion of alternative ``i``."""
    out = []
    for j, polarity in enumerate(doc["polarity"]):
        cells = [matrix[i][j] for matrix in doc["experts"]]
        if polarity == "cost":
            cells = [(nu, mu) for mu, nu in cells]
        k = len(cells)
        mu = math.sqrt(sum(c[0] ** 2 for c in cells) / k)
        nu = math.sqrt(sum(c[1] ** 2 for c in cells) / k)
        r = min(1.0, max(math.hypot(mu - c[0], nu - c[1]) for c in cells))
        out.append((mu, nu, r))
    return out


def _prod(xs, ws) -> float:
    p = 1.0
    for x, w in zip(xs, ws):
        p *= x ** w
    return p


def _dual(xs, ws) -> float:
    return math.sqrt(max(0.0, 1.0 - _prod([1.0 - x * x for x in xs], ws)))


def aggregate(row: list[tuple[float, float, float]], weights, operator: str) -> tuple[float, float, float]:
    mus, nus, rs = zip(*row)
    if operator.startswith("cpwa"):
        mu, nu = _dual(mus, weights), _prod(nus, weights)
    else:
        mu, nu = _prod(mus, weights), _dual(nus, weights)
    r = _prod(rs, weights) if operator.endswith("_q") else _dual(rs, weights)
    return mu, nu, r


def half_up(x: float, digits: int) -> float:
    return float(Decimal(repr(x)).quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP))


def score(mu: float, nu: float, r: float) -> float:
    return 0.5 * (mu * mu / math.hypot(mu * mu, nu * nu) + r)


def _close(a, b) -> bool:
    return all(abs(x - y) <= TOL for x, y in zip(a, b, strict=True))


def check_alternative(doc: dict, i: int, operator: str, precision: int | None, got: dict) -> list[str]:
    """Compare the program's values for alternative ``i`` against the oracle.

    ``got`` holds the program's ``circular_row`` (list of ``(mu, nu, r)``),
    ``aggregated``, ``scored`` and ``similarity``.  The scored value is the
    quantization of the program's own aggregate (once that matched), so a
    1e-16 difference next to a half-way point cannot flip a digit.  Returns a
    list of mismatch descriptions, empty when everything agrees.
    """
    errors = []
    row = fused_row(doc, i)
    if len(row) != len(got["circular_row"]) or not all(
        _close(a, b) for a, b in zip(row, got["circular_row"])
    ):
        errors.append(f"alternative {i}: fused row differs")
    agg = aggregate(row, doc["weights"], operator)
    if not _close(agg, got["aggregated"]):
        errors.append(f"alternative {i}: aggregate {got['aggregated']} != oracle {agg}")
    scored = tuple(got["aggregated"]) if precision is None else tuple(
        half_up(x, precision) for x in got["aggregated"]
    )
    if tuple(got["scored"]) != scored:
        errors.append(f"alternative {i}: scored {got['scored']} != oracle {scored}")
    if not _close([score(*scored)], [got["similarity"]]):
        errors.append(f"alternative {i}: similarity {got['similarity']} != oracle {score(*scored)}")
    return errors


def check_ranking(labels, similarities, entries) -> list[str]:
    """``entries`` is the best-first list of ``(label, score, tied)``.

    The ranking must be a permutation of ``labels``, carry each label's own
    similarity, never increase from best to worst, and flag exactly the
    scores that occur more than once.
    """
    errors = []
    ranked = [e[0] for e in entries]
    if sorted(ranked) != sorted(labels) or len(set(ranked)) != len(ranked):
        return ["ranking is not a permutation of the alternatives"]
    by_label = dict(zip(labels, similarities))
    if any(by_label[label] != s for label, s, _ in entries):
        errors.append("ranking scores differ from the similarities")
    if any(a[1] < b[1] for a, b in zip(entries, entries[1:])):
        errors.append("ranking scores increase from best to worst")
    counts = Counter(s for _, s, _ in entries)
    if any(bool(tied) != (counts[s] > 1) for _, s, tied in entries):
        errors.append("tie flags differ from equality of scores")
    return errors
