"""Radius-aware cosine similarity between circular values.

    csm(a, b) = 1/2 * ( cos + 1 - |r_a - r_b| )

where ``cos`` is the cosine of the angle between the squared-component
vectors ``(mu_a**2, nu_a**2)`` and ``(mu_b**2, nu_b**2)``.  Both terms lie in
[0, 1], so the measure does too.  It is symmetric, and equal arguments score
exactly 1; the converse fails (proportional squared centers with equal radii
also score 1).

A center with ``mu = nu = 0`` makes the cosine term 0/0; such arguments are
rejected rather than given an arbitrary value, since an invented convention
here could silently flip a ranking.
"""

from __future__ import annotations

import math

from .errors import DegenerateCenter
from .values import CPFV

__all__ = ["IDEAL", "csm", "csm_to_ideal"]

#: The reference value every alternative is scored against: full membership,
#: no non-membership, maximal radius.
IDEAL = CPFV(1.0, 0.0, 1.0)


def csm(a: CPFV, b: CPFV) -> float:
    """Cosine similarity of two circular values, in [0, 1]."""
    m2a, n2a = a.mu * a.mu, a.nu * a.nu
    m2b, n2b = b.mu * b.mu, b.nu * b.nu
    sa = m2a * m2a + n2a * n2a
    sb = m2b * m2b + n2b * n2b
    if sa == 0.0 or sb == 0.0:
        bad = a if sa == 0.0 else b
        raise DegenerateCenter(
            f"cosine term is undefined for a value with center (0, 0): {bad!r}"
        )
    # sqrt(sa * sb) keeps csm(a, a) == 1 exact: the rounded square of a float
    # takes its square root back to that float.  Falls back to the factored
    # form only if the product underflows.
    denom = math.sqrt(sa * sb)
    if denom == 0.0:
        denom = math.sqrt(sa) * math.sqrt(sb)
    cos = min((m2a * m2b + n2a * n2b) / denom, 1.0)
    return 0.5 * (cos + 1.0 - abs(a.r - b.r))


def csm_to_ideal(a: CPFV) -> float:
    """Similarity of ``a`` to :data:`IDEAL`; the ranking score of the pipeline."""
    return csm(a, IDEAL)
