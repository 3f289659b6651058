"""Two invariances of the method, pinned bit for bit on a seeded benchmark problem.

Fusing takes ``math.fsum`` and ``max`` over the experts, so their order cannot
change any fused cell, aggregate or score.  Each alternative is aggregated and
scored against the ideal on its own, so dropping other alternatives cannot
change its score or reverse its order against the alternatives that stay: no
rank reversal (Belton & Gear, Omega 11(3), 1983).  Both hold under all four
operators, with the aggregates quantized and unrounded.  Invariance under a
permutation of the criteria does not hold yet, since the weighted sums add in
criterion order, and is not pinned.
"""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from cpfs import OPERATOR_NAMES, solve
from cpfs.serialize import parse_problem
from helpers import perfbench_gen

EXPERTS, ALTERNATIVES, CRITERIA = 5, 300, 6
SETTINGS = [(op, precision) for op in OPERATOR_NAMES for precision in (2, None)]


@pytest.fixture(scope="module")
def document():
    """A 5 x 300 x 6 benchmark document with boundary cells and a zero weight."""
    with pytest.MonkeyPatch.context() as patch:
        gen = perfbench_gen(patch)
        params = gen.Params(EXPERTS, ALTERNATIVES, CRITERIA, boundary_frac=0.1, zero_weight=True)
        return gen.generate(params, 0)


@pytest.fixture(scope="module")
def solved(document):
    """The document's result under each operator and aggregate precision."""
    problem = parse_problem(document)
    return {setting: solve(problem, setting[0], aggregate_precision=setting[1]) for setting in SETTINGS}


def hexed(values):
    return [x.hex() for x in values]


def fingerprint(result):
    """Every fused cell, aggregate and score as ``float.hex``, and the ranking."""
    fused = [hexed(column) for row in result.circular_matrix for column in (row.mu, row.nu, row.r)]
    aggregates = [hexed(v.as_tuple()) for v in (*result.aggregated, *result.scored)]
    ranking = [(e.label, e.score.hex(), e.tied) for e in result.ranking.entries]
    return fused, aggregates, hexed(result.similarities), ranking


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(EXPERTS)))
@example(list(reversed(range(EXPERTS))))
def test_reordering_the_experts_changes_no_bit(document, solved, order):
    doc = copy.copy(document)
    doc["experts"] = [document["experts"][e] for e in order]
    problem = parse_problem(doc)
    for setting, want in solved.items():
        got = solve(problem, setting[0], aggregate_precision=setting[1])
        assert fingerprint(got) == fingerprint(want), setting


@settings(max_examples=10, deadline=None)
@given(st.sets(st.integers(0, ALTERNATIVES - 1), max_size=ALTERNATIVES - 1))
@example(set(range(1, ALTERNATIVES)))
@example(set(range(0, ALTERNATIVES, 2)))
def test_dropping_alternatives_leaves_the_others_scores_and_order(document, solved, dropped):
    kept = [i for i in range(ALTERNATIVES) if i not in dropped]
    doc = copy.copy(document)
    doc["alternatives"] = [document["alternatives"][i] for i in kept]
    doc["experts"] = [[matrix[i] for i in kept] for matrix in document["experts"]]
    problem = parse_problem(doc)
    for setting, want in solved.items():
        got = solve(problem, setting[0], aggregate_precision=setting[1])
        assert hexed(got.similarities) == [want.similarities[i].hex() for i in kept], setting
        labels = set(doc["alternatives"])
        assert got.ranking.labels() == tuple(label for label in want.ranking.labels() if label in labels)
