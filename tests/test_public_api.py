"""The package's public names: pinned, so a refactor can be seen to remove none."""

import pytest

import cpfs

PUBLIC = [
    'CPFS', 'CPFV', 'CircularFuzzyError', 'ConstraintViolation', 'DecisionProblem',
    'DegenerateCenter', 'DimensionMismatch', 'DomainError', 'EmptyInput', 'Generator',
    'GeneratorPair', 'IDEAL', 'InvalidWeights', 'LengthMismatch', 'MAX_PRECISION',
    'NonPositiveScalar', 'OPERATOR_NAMES', 'OutOfRange', 'PFV', 'ParseError',
    'PipelineResult', 'RADIUS_GENERATOR_NAMES', 'RadiusOutOfRange', 'Ranking',
    'RankingEntry', 'UNIT_SLACK', 'UniverseMismatch', 'UnknownGenerator', 'UnknownOperator',
    'WEIGHT_SUM_TOL', 'WeightVector', '__version__', 'add', 'add_general', 'add_minmax',
    'aggregate', 'algebraic_dual_generator', 'algebraic_generator', 'algebraic_pair',
    'build_circular_matrix', 'case_study_path', 'collections_path', 'complement',
    'complexity_estimate', 'complexity_sweep', 'cpwa', 'cpwg', 'csm', 'csm_to_ideal',
    'dual_tconorm', 'equal', 'format_fixed', 'fuse', 'intersect', 'load_case_study',
    'make_operator', 'membership_side', 'multiply', 'multiply_general', 'multiply_minmax',
    'normalize', 'power', 'pythagorean_complement', 'radius_generator', 'round_half_up',
    'scalar_multiple', 'solve', 'subset', 'tconorm_from_generator', 'tnorm_from_generator',
    'union', 'validate_cpfv', 'validate_pfv',
]  # fmt: skip


def test_all_is_pinned():
    assert sorted(cpfs.__all__) == PUBLIC
    assert len(set(cpfs.__all__)) == len(cpfs.__all__)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_resolves(name):
    assert hasattr(cpfs, name)
