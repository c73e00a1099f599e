"""Overflow-safe hyperbolic helpers.

The textbook cosh/sinh ratios overflow in double precision near x ~ 355,
while the formulas in this package take unbounded squeezing and inverse
temperature arguments.  The forms below stay finite for every positive
float input and keep full relative accuracy for small arguments.
"""

import math

from .errors import DomainError, as_real

__all__ = ["coth", "sech"]


def coth(x):
    """Hyperbolic cotangent for x > 0.

    Evaluated as 1 + 2 e^{-2x} / (1 - e^{-2x}), which never overflows:
    the correction term underflows gracefully to 0 for large x, and expm1
    keeps the small-x behaviour 1/x + x/3 - ... accurate to full relative
    precision.  x = inf gives the limit 1.0.
    """
    v = x if type(x) is float else as_real(x)
    if not v > 0.0:
        raise DomainError(f"coth requires a positive argument, got {x!r}")
    e = math.exp(-2.0 * v)
    return 1.0 + 2.0 * e / -math.expm1(-2.0 * v)


def sech(x):
    """Hyperbolic secant, safe for arbitrarily large |x|.

    2 e^{-|x|} / (1 + e^{-2|x|}) underflows to 0.0 instead of raising when
    cosh would overflow; x = +-inf gives the limit 0.0.
    """
    v = x if type(x) is float else as_real(x)
    if v != v:
        raise DomainError(f"sech requires a real argument, got {x!r}")
    e = math.exp(-abs(v))
    return 2.0 * e / (1.0 + e * e)

