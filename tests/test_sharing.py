"""``normalize`` against the cell-by-cell reference, and how few point values
a solve builds.

``normalize`` swaps the columns of every cost criterion; its values must
equal those of ``reference_normalize``, which complements every cost cell,
bit for bit (compared as ``float.hex``, so the sign of ``-0.0`` counts).
"""

import json

import pytest
from hypothesis import example, given, settings

from cpfs import OPERATOR_NAMES, PFV, DecisionProblem, WeightVector, case_study_path, normalize, solve
from cpfs.serialize import parse_problem
from helpers import bits, perfbench_gen, problems, reference_normalize


@settings(max_examples=300)
@given(problems())
@example(DecisionProblem(("A1", "A2"), ("C1",), ("cost",), WeightVector((1.0,)),
                         (((PFV(0.0, 0.5),), (PFV(-0.0, 0.5),)),)))
@example(DecisionProblem(("A1",), ("C1", "C2"), ("cost", "benefit"), WeightVector.uniform(2),
                         (((PFV(1.0, 0.0), PFV(0.0, 1.0)),), ((PFV(5e-324, -0.0), PFV(-0.0, 1.0)),))))
def test_normalize_equals_the_complement_of_every_cost_cell(problem):
    got = normalize(problem)
    assert got == reference_normalize(problem)
    assert bits(got) == bits(reference_normalize(problem))
    twice = normalize(got)
    assert twice == problem
    assert bits(twice) == bits(problem)


def test_a_panel_solve_builds_few_point_values(monkeypatch):
    """Parsing and solving the benchmark's 10x500x20 ``panel`` problem at
    seed 0 built 161,000 point values with one object per cell and 11,000
    with the cells held in columns; it builds none now that a circular value
    holds its center's components itself."""
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


def point_values_built(monkeypatch, text: str, operator: str) -> int:
    """The :class:`PFV` objects built by parsing ``text`` and solving it under ``operator``."""
    built = 0
    post_init = vars(PFV)["__post_init__"]

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(PFV, "__post_init__", counting)
    solve(parse_problem(text), operator)
    return built


@pytest.mark.parametrize("operator", OPERATOR_NAMES)
def test_a_case_study_solve_builds_no_point_value(monkeypatch, operator):
    assert point_values_built(monkeypatch, case_study_path().read_text(encoding="utf-8"), operator) == 0


def test_a_panel_shaped_solve_builds_no_point_value(monkeypatch):
    gen = perfbench_gen(monkeypatch)
    text = json.dumps(gen.generate(gen.Params(experts=10, alternatives=500, criteria=20), 7))
    assert point_values_built(monkeypatch, text, "cpwa_q") == 0
