"""Equal point values are built once per call and shared.

``normalize`` builds each distinct swapped cell once; its values must equal
those of ``reference_normalize``, which complements every cost cell, bit for
bit (compared as ``float.hex``, so the sign of ``-0.0`` counts).  Equal
non-zero pairs are one object; a pair with a zero component is never shared.
A full sharing table only stops the sharing.
"""

import json
from collections import defaultdict
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from cpfs import PFV, DecisionProblem, WeightVector, normalize, solve, values
from cpfs.serialize import parse_problem
from helpers import perfbench_gen, reference_normalize

# Few distinct values, so cells repeat; both zeros, the axes' ends, a point
# on the unit circle and the smallest subnormal.
COMPONENTS = [0.0, -0.0, 0.25, 0.5, 0.6, 0.8, 1.0, 5e-324]
component = st.one_of(st.sampled_from(COMPONENTS), st.floats(0.0, 1.0))
cells = (
    st.tuples(component, component)
    .filter(lambda p: p[0] * p[0] + p[1] * p[1] <= 1.0)
    .map(lambda p: PFV(*p))
)


@st.composite
def problems(draw):
    k, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(cells, min_size=m, max_size=m).map(tuple)
    matrix = st.lists(row, min_size=n, max_size=n).map(tuple)
    return DecisionProblem(
        alternatives=tuple(f"A{i}" for i in range(n)),
        criteria=tuple(f"C{j}" for j in range(m)),
        polarity=tuple(draw(st.lists(st.sampled_from(["benefit", "cost"]), min_size=m, max_size=m))),
        weights=WeightVector.uniform(m),
        experts=tuple(draw(st.lists(matrix, min_size=k, max_size=k))),
    )


def bits(problem):
    return [
        (c.mu.hex(), c.nu.hex()) for matrix in problem.experts for row in matrix for c in row
    ]


def swapped(problem, normalized):
    """The normalized cells under cost criteria, grouped by their bits."""
    groups = defaultdict(list)
    for matrix in normalized.experts:
        for row in matrix:
            for cell, polarity in zip(row, problem.polarity):
                if polarity == "cost":
                    groups[cell.mu.hex(), cell.nu.hex()].append(cell)
    return groups


def check_normalize(problem):
    got = normalize(problem)
    assert got == reference_normalize(problem)
    assert bits(got) == bits(reference_normalize(problem))
    for matrix, before in zip(got.experts, problem.experts):
        for row, old_row in zip(matrix, before):
            for cell, old, polarity in zip(row, old_row, problem.polarity):
                if polarity == "benefit":
                    assert cell is old
    return got


@settings(max_examples=300)
@given(problems())
@example(DecisionProblem(("A1", "A2"), ("C1",), ("cost",), WeightVector((1.0,)),
                         (((PFV(0.0, 0.5),), (PFV(-0.0, 0.5),)),)))
def test_normalize_equals_the_complement_of_every_cost_cell(problem):
    got = check_normalize(problem)
    for (mu, nu), group in swapped(problem, got).items():
        ids = {id(c) for c in group}
        if float.fromhex(mu) and float.fromhex(nu):
            assert len(ids) == 1, (mu, nu)
        else:
            assert len(ids) == len(group), (mu, nu)
    twice = normalize(got)
    assert twice == problem
    assert bits(twice) == bits(problem)


@settings(max_examples=150)
@given(problems(), st.integers(0, 3))
def test_a_full_table_only_stops_the_sharing(problem, bound):
    with mock.patch.object(values, "_SHARED_MAX", bound):
        got = check_normalize(problem)
    # At most `bound` values went into the table, so at most that many are shared.
    shared = [g for g in swapped(problem, got).values() if len({id(c) for c in g}) < len(g)]
    assert len(shared) <= bound


def test_a_table_holds_at_most_the_bound():
    with mock.patch.object(values, "_SHARED_MAX", 3):
        table = {}
        first = values._shared_pfv(table, 0.1, 0.1)
        assert values._shared_pfv(table, 0.1, 0.1) is first
        for k in range(2, 6):
            values._shared_pfv(table, 0.1 * k, 0.1)
        assert len(table) == 3
        # A full table is no longer read.
        assert values._shared_pfv(table, 0.1, 0.1) is not first


def test_a_panel_solve_builds_few_point_values(monkeypatch):
    """Parsing and solving the benchmark's 10x500x20 ``panel`` problem at
    seed 0 built 161,000 point values before they were shared, 26,475 after."""
    gen = perfbench_gen(monkeypatch)
    text = json.dumps(gen.generate(gen.Params(experts=10, alternatives=500, criteria=20), 0))
    built = 0
    post_init = vars(PFV)["__post_init__"]

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(PFV, "__post_init__", counting)
    solve(parse_problem(text))
    assert built < 30_000
