"""Circular Pythagorean fuzzy sets: values, algebra, aggregation, decisions.

The value model is the circular Pythagorean fuzzy value -- a membership /
non-membership pair constrained by ``mu**2 + nu**2 <= 1`` plus an uncertainty
radius.  On top of it the package provides generator-driven algebra, weighted
aggregation operators, a radius-aware cosine similarity, a fusion rule that
condenses many point evaluations into one circular value, and a complete
multi-criteria group decision pipeline with a CLI.  The package re-exports
each module's ``__all__`` and nothing else.
"""

from .errors import *  # noqa: F401,F403
from .values import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .algebra import *  # noqa: F401,F403
from .aggregation import *  # noqa: F401,F403
from .fusion import *  # noqa: F401,F403
from .similarity import *  # noqa: F401,F403
from .mcdm import *  # noqa: F401,F403
from .datasets import *  # noqa: F401,F403
from .rounding import *  # noqa: F401,F403
from . import aggregation, algebra, datasets, errors, fusion, generators, mcdm, rounding, similarity, values

__version__ = "0.1.0"

__all__ = [
    "__version__", *errors.__all__, *values.__all__, *generators.__all__, *algebra.__all__,
    *aggregation.__all__, *fusion.__all__, *similarity.__all__, *mcdm.__all__,
    *datasets.__all__, *rounding.__all__,
]
