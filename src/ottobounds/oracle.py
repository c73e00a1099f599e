"""Deterministic numerical search, independent of every closed form it checks.

Two primitives: golden-section maximisation of unimodal scalar objectives
(many lanes in lockstep, with a parabolic polish step), and bisection root
location.  Both are fully deterministic: identical inputs produce
bitwise-identical reports, and no randomness enters anywhere.  numpy is
imported by the functions that compute on arrays, not by this module, so
the scalar paths of the package start without it.  The ceiling suite's
grid scan lives in `verify`, next to the kernel it runs.
"""

import math

from ._record import Record
from .errors import BracketError, DomainError, as_real, nonnegative_int

__all__ = [
    "SupremumReport",
    "axis_points",
    "find_root_scalar",
    "maximize_scalar",
    "refine_parabolic",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0        # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0       # 1/phi^2
TOL = 1e-12        # bracket width at which the golden search and the bisection stop
POLISH_H = 1e-5    # refine_parabolic's sample spacing, well outside the sqrt(eps) plateau


def _finite_interval(lo, hi, what):
    """(lo, hi) as Python floats with -inf < lo < hi < inf, else DomainError."""
    a, b = as_real(lo), as_real(hi)
    if -math.inf < a < b < math.inf:
        return a, b
    raise DomainError(f"{what} must be finite with lo < hi, got [{lo!r}, {hi!r}]")


def _finite(name, value):
    """value as a Python float if it is a finite real, else DomainError."""
    v = as_real(value)
    if -math.inf < v < math.inf:
        return v
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


def _objective(fn):
    if not callable(fn):
        raise DomainError(f"the objective must be callable, got {fn!r}")
    return fn


class SupremumReport(Record):
    """Best point found by a golden-section search, its value and the evaluations it took."""

    def __init__(self, best_input, best_value, evaluations):
        d = self.__dict__
        d["best_input"] = best_input
        d["best_value"] = best_value
        d["evaluations"] = evaluations


def axis_points(start, stop, count):
    """count evenly spaced floats from start to stop, the last exactly stop.

    The arithmetic of np.linspace, i*step + start, on plain floats; a count
    of 0 gives no points, as np.linspace does.  Where stop - start
    overflows, np.linspace gives NaN and inf; this raises DomainError.
    """
    start, stop = _finite("start", start), _finite("stop", stop)
    count = nonnegative_int("count", count)
    if count < 2:
        return [start] * count
    span = stop - start
    if abs(span) == math.inf:
        raise DomainError(f"stop - start overflows: [{start!r}, {stop!r}]")
    step = span / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def _finite_reals(v):
    """Whether v is a finite real or an array of them: no NaN, inf, bool or string."""
    import numpy as np
    v = np.asarray(v)
    return v.dtype.kind in "fiu" and bool(np.isfinite(v).all())


def _eval_finite(fn, x):
    y = fn(x)
    if not _finite_reals(y):
        raise DomainError(f"objective returned {y!r} at x={x}, not a finite real number")
    return y


def _pick(cond, x, y):
    import numpy as np
    # [()] makes a 0-d result a numpy scalar, so one-lane objectives get floats.
    return np.where(cond, x, y)[()]


def _out(v):
    import numpy as np
    return float(v) if np.ndim(v) == 0 else v


def maximize_scalar(fn, lo, hi):
    """Golden-section maximisation of ``fn`` on [lo, hi] to a bracket of width TOL.

    ``fn`` maps a float to a float, or an array of lane points to lane
    values, and is assumed unimodal on the bracket: each use in this
    package documents why that holds (and the tests check it by second
    differences).  The bracket shrinks by 1/phi per iteration; the step
    count is fixed up front as ceil(log(width/TOL)/log(phi)), so the report
    is a deterministic function of the inputs.  best_input is the best
    point actually evaluated, which always lies inside the final bracket.
    Lanes run in lockstep, one call per step, and each gets bitwise the
    result of its own one-lane search; evaluations counts all.  A bracket
    whose width hi - lo overflows is a DomainError.
    """
    fn = _objective(fn)
    a, b = _finite_interval(lo, hi, "interval")
    import numpy as np
    h = b - a
    if h == math.inf:
        raise DomainError(f"interval width overflows: [{lo!r}, {hi!r}]")
    if h <= TOL:
        x = 0.5 * a + 0.5 * b
        y = _eval_finite(fn, x)
        x = np.broadcast_to(x, np.shape(y))
        return SupremumReport(_out(x), _out(y), np.size(y))

    q = h / TOL   # inf for a bracket wider than TOL * DBL_MAX: then a difference of logs
    log_q = math.log(q) if q < math.inf else math.log(h) - math.log(TOL)
    n = int(math.ceil(log_q / math.log(1.0 / INV_PHI)))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = _eval_finite(fn, c)
    yd = _eval_finite(fn, d)
    best_x = _pick(yc >= yd, c, d)
    best_y = _pick(yc >= yd, yc, yd)

    for _ in range(n - 1):
        left = yc > yd    # lanes whose maximum lies left of d
        a, b = _pick(left, a, c), _pick(left, d, b)
        h = INV_PHI * h
        x_new = _pick(left, a + INV_PHI2 * h, a + INV_PHI * h)
        y_new = _eval_finite(fn, x_new)
        c, d = _pick(left, x_new, d), _pick(left, c, x_new)
        yc, yd = _pick(left, y_new, yd), _pick(left, yc, y_new)
        better = y_new > best_y
        best_x, best_y = _pick(better, x_new, best_x), _pick(better, y_new, best_y)

    mid = 0.5 * a + 0.5 * b   # halves first: a + b may overflow
    y_mid = _eval_finite(fn, mid)
    better = y_mid > best_y
    best_x, best_y = _pick(better, mid, best_x), _pick(better, y_mid, best_y)
    return SupremumReport(_out(best_x), _out(best_y), (n + 2) * np.size(best_y))


def refine_parabolic(fn, x):
    """One parabolic-fit step through (x - h, x, x + h), h = POLISH_H, around a maximum.

    Any comparison-based search (golden section included) stalls once the
    objective differences near a smooth interior maximum fall under the
    rounding noise of the values, an argmax plateau of order sqrt(eps).
    A single parabola fitted through samples spaced well outside that
    plateau recovers the vertex to ~h^2 truncation error instead.  Returns
    x unchanged if the three points are not locally concave at this scale.
    ``x`` may be an array of lane points.
    """
    import numpy as np
    fn = _objective(fn)
    if not isinstance(x, np.ndarray):
        x = _finite("x", x)
    elif not _finite_reals(x):
        raise DomainError(f"x must hold finite real lane points, got {x!r}")
    h = POLISH_H
    f0 = _eval_finite(fn, x)
    fp = _eval_finite(fn, x + h)
    fm = _eval_finite(fn, x - h)
    den = fp - 2.0 * f0 + fm
    step = 0.5 * h * (fp - fm) / np.where(den < 0.0, den, -1.0)   # den >= 0: unused
    return _out(_pick(den >= 0.0, x, x - step))


def _real_value(g, x):
    """g(x) as a Python float, +-inf included; DomainError for NaN or a non-real."""
    y = g(x)
    v = as_real(y)
    if v == v:
        return v
    raise DomainError(f"objective returned {y!r} at x={x}, not a real number")


def find_root_scalar(g, bracket):
    """Bisection root of a continuous function with a sign change on the bracket, to TOL.

    ``bracket`` is a pair (lo, hi).  g may return +-inf; a NaN or non-real
    value anywhere the bisection looks is a DomainError, since a root next
    to it could be anywhere.
    """
    g = _objective(g)
    try:
        lo, hi = bracket
    except (TypeError, ValueError):
        raise DomainError(f"bracket must be a pair (lo, hi), got {bracket!r}") from None
    a, b = _finite_interval(lo, hi, "bracket")
    fa = _real_value(g, a)
    fb = _real_value(g, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={fa}, g(b)={fb}")
    while b - a > TOL:
        mid = 0.5 * a + 0.5 * b
        if mid <= a or mid >= b:  # interval no longer splittable in floats
            break
        fm = _real_value(g, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * a + 0.5 * b
