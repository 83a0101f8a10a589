"""Exact binomial coefficients under the vanishing convention.

Every binomial appearing in the hypersurface formulas is interpreted with
``binom(a, b) = 0`` unless ``0 <= b <= a``.  In particular a negative upper
index gives 0; the generalized (polynomial) extension would produce wrong,
nonzero values on the middle lines of twisted Hodge diamonds.
"""

from __future__ import annotations

import math


def binom(a: int, b: int) -> int:
    """Binomial coefficient a!/(b!(a-b)!), or 0 unless 0 <= b <= a."""
    if 0 <= b <= a:
        return math.comb(a, b)
    return 0
