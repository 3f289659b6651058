"""A problem's cells held in two float columns, against the nested point values.

``DecisionProblem`` keeps its cells as the columns ``mu`` and ``nu``, and
``experts_of(problem)`` builds the nested point values from them.  Fusing from the
columns must equal the per-cell reference fuse over those values, and a
problem must read back from its document, bit for bit (compared as
``float.hex``, so the sign of ``-0.0`` counts).  ``normalize`` is checked against its reference in
``test_sharing``.
"""

from hypothesis import example, given, settings

from cpfs import PFV, DecisionProblem, WeightVector, build_circular_matrix, normalize
from cpfs.serialize import dump_problem, parse_problem, problem_to_dict
from helpers import bits, experts_of, problems, reference_fuse

# Both zeros, the smallest subnormal and the two boundary cells, under mixed
# polarity; one expert, then two.
EDGES = [
    DecisionProblem(("A1",), ("C1", "C2"), ("cost", "benefit"), WeightVector.uniform(2),
                    (((PFV(1.0, 0.0), PFV(0.0, 1.0)),),)),
    DecisionProblem(("A1", "A2"), ("C1", "C2"), ("benefit", "cost"), WeightVector.uniform(2),
                    (((PFV(-0.0, 5e-324), PFV(1.0, 0.0)), (PFV(0.0, 1.0), PFV(5e-324, -0.0))),
                     ((PFV(0.0, -0.0), PFV(0.0, 1.0)), (PFV(1.0, 0.0), PFV(-0.0, 5e-324))))),
]


def hexed(values):
    return [[tuple(x.hex() for x in v.as_tuple()) for v in row] for row in values]


def with_edges(test):
    for problem in EDGES:
        test = example(problem)(test)
    return settings(max_examples=200)(given(problems())(test))


@with_edges
def test_fusing_the_columns_equals_fusing_each_cell(problem):
    experts = experts_of(problem)
    _, n, k = problem.shape
    want = [[reference_fuse([matrix[i][j] for matrix in experts]) for j in range(k)] for i in range(n)]
    assert hexed(build_circular_matrix(problem)) == hexed(want)


@with_edges
def test_a_problem_reads_back_from_its_document(problem):
    for document in (problem_to_dict(problem), dump_problem(problem)):
        again = parse_problem(document)
        assert again == problem
        assert bits(again) == bits(problem)
        assert hash(again) == hash(problem)


@with_edges
def test_equal_problems_hash_alike(problem):
    rebuilt = DecisionProblem(problem.alternatives, problem.criteria, problem.polarity,
                              problem.weights, experts_of(problem))
    assert rebuilt == problem and hash(rebuilt) == hash(problem)
    assert bits(rebuilt) == bits(problem)
    twice = normalize(normalize(problem))
    assert twice == problem and hash(twice) == hash(problem)
    experts = experts_of(problem)
    assert problem.shape == (len(experts), len(experts[0]), len(experts[0][0]))
