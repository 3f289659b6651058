"""The package's public names: pinned, so a refactor can be seen to remove none."""

import pytest

import cpfs
from cpfs import aggregation, algebra, datasets, errors, fusion, generators, mcdm, rounding, similarity, values

#: The modules whose ``__all__`` the package re-exports, in order.
MODULES = [errors, values, generators, algebra, aggregation, fusion, similarity, mcdm, datasets, rounding]

PUBLIC = [
    'CPFS', 'CPFV', 'CircularFuzzyError', 'ConstraintViolation', 'DecisionProblem',
    'DegenerateCenter', 'DimensionMismatch', 'DomainError', 'EmptyInput', 'Generator',
    'GeneratorPair', 'IDEAL', 'InvalidWeights', 'LengthMismatch', 'MAX_PRECISION',
    'NonPositiveScalar', 'OPERATOR_NAMES', 'OutOfRange', 'PFV', 'ParseError',
    'PipelineResult', 'RadiusOutOfRange', 'Ranking',
    'RankingEntry', 'UNIT_SLACK', 'UniverseMismatch', 'UnknownGenerator', 'UnknownOperator',
    'WEIGHT_SUM_TOL', 'WeightVector', '__version__', 'add', 'add_general', 'add_minmax',
    'algebraic_dual_generator', 'algebraic_generator', 'algebraic_pair',
    'build_circular_matrix', 'case_study_path', 'collections_path', 'complement',
    'complexity_estimate', 'complexity_sweep', 'cpwa', 'cpwg', 'csm', 'csm_to_ideal',
    'dual_tconorm', 'equal', 'format_fixed', 'fuse', 'intersect', 'load_case_study',
    'make_operator', 'multiply', 'multiply_general', 'multiply_minmax',
    'normalize', 'power', 'pythagorean_complement', 'round_half_up',
    'scalar_multiple', 'solve', 'subset', 'tconorm_from_generator', 'tnorm_from_generator',
    'union',
]  # fmt: skip


def test_all_is_pinned():
    assert sorted(cpfs.__all__) == PUBLIC
    assert len(set(cpfs.__all__)) == len(cpfs.__all__)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_resolves(name):
    assert hasattr(cpfs, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_name_is_the_package_name(module):
    for name in module.__all__:
        assert getattr(cpfs, name) is getattr(module, name), name


def test_all_is_the_modules_all():
    # test_all_is_pinned checks that no name appears twice.
    assert cpfs.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]
