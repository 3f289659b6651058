"""Circular Pythagorean fuzzy sets: values, algebra, aggregation, decisions.

The value model is the circular Pythagorean fuzzy value -- a membership /
non-membership pair constrained by ``mu**2 + nu**2 <= 1`` plus an uncertainty
radius.  On top of it the package provides generator-driven algebra, weighted
aggregation operators, a radius-aware cosine similarity, a fusion rule that
condenses many point evaluations into one circular value, and a complete
multi-criteria group decision pipeline with a CLI.
"""

from .errors import (
    CircularFuzzyError,
    ConstraintViolation,
    DegenerateCenter,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    InvalidWeights,
    LengthMismatch,
    NonPositiveScalar,
    OutOfRange,
    ParseError,
    RadiusOutOfRange,
    UniverseMismatch,
    UnknownGenerator,
    UnknownOperator,
)
from .values import (
    CPFS,
    CPFV,
    PFV,
    UNIT_SLACK,
    complement,
    equal,
    intersect,
    subset,
    union,
    validate_cpfv,
    validate_pfv,
)
from .generators import (
    Generator,
    GeneratorPair,
    RADIUS_GENERATOR_NAMES,
    algebraic_dual_generator,
    algebraic_generator,
    algebraic_pair,
    dual_tconorm,
    membership_side,
    pythagorean_complement,
    radius_generator,
    tconorm_from_generator,
    tnorm_from_generator,
)
from .algebra import (
    add,
    add_general,
    add_minmax,
    multiply,
    multiply_general,
    multiply_minmax,
    power,
    scalar_multiple,
)
from .aggregation import (
    OPERATOR_NAMES,
    WEIGHT_SUM_TOL,
    WeightVector,
    aggregate,
    cpwa,
    cpwg,
    make_operator,
)
from .fusion import build_circular_matrix, fuse
from .similarity import IDEAL, csm, csm_to_ideal
from .mcdm import (
    DecisionProblem,
    PipelineResult,
    Ranking,
    RankingEntry,
    complexity_estimate,
    complexity_sweep,
    normalize,
    solve,
)
from .datasets import case_study_path, collections_path, load_case_study
from .rounding import MAX_PRECISION, format_fixed, round_half_up

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CircularFuzzyError",
    "OutOfRange",
    "ConstraintViolation",
    "RadiusOutOfRange",
    "UniverseMismatch",
    "NonPositiveScalar",
    "EmptyInput",
    "LengthMismatch",
    "InvalidWeights",
    "DegenerateCenter",
    "DimensionMismatch",
    "UnknownOperator",
    "UnknownGenerator",
    "DomainError",
    "ParseError",
    # values
    "UNIT_SLACK",
    "PFV",
    "CPFV",
    "CPFS",
    "validate_pfv",
    "validate_cpfv",
    "complement",
    "subset",
    "equal",
    "union",
    "intersect",
    # generators
    "Generator",
    "GeneratorPair",
    "algebraic_generator",
    "algebraic_dual_generator",
    "membership_side",
    "radius_generator",
    "RADIUS_GENERATOR_NAMES",
    "algebraic_pair",
    "pythagorean_complement",
    "tnorm_from_generator",
    "tconorm_from_generator",
    "dual_tconorm",
    # algebra
    "add",
    "multiply",
    "scalar_multiple",
    "power",
    "add_minmax",
    "multiply_minmax",
    "add_general",
    "multiply_general",
    # aggregation
    "WEIGHT_SUM_TOL",
    "WeightVector",
    "cpwa",
    "cpwg",
    "OPERATOR_NAMES",
    "make_operator",
    "aggregate",
    # fusion
    "fuse",
    "build_circular_matrix",
    # similarity
    "IDEAL",
    "csm",
    "csm_to_ideal",
    # pipeline
    "DecisionProblem",
    "Ranking",
    "RankingEntry",
    "PipelineResult",
    "normalize",
    "solve",
    "complexity_estimate",
    "complexity_sweep",
    # datasets
    "case_study_path",
    "load_case_study",
    "collections_path",
    # rounding
    "MAX_PRECISION",
    "round_half_up",
    "format_fixed",
]
