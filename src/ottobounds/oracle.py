"""Deterministic numerical search, independent of every closed form it checks.

Three primitives: golden-section maximisation of unimodal scalar objectives
(many lanes in lockstep), brute-force suprema over constrained rectangular
grids, and bisection root location.  All three are fully deterministic:
identical inputs produce bitwise-identical reports, grid reductions break
ties on the lowest lexicographic input, and no randomness enters anywhere.
numpy is imported by the functions that compute on arrays, not by this
module, so the scalar paths of the package start without it.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, as_real, positive

__all__ = [
    "ScalarObjective",
    "SupremumReport",
    "axis_points",
    "find_root_scalar",
    "maximize_scalar",
    "refine_parabolic",
    "sup_constrained_grid",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0        # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0       # 1/phi^2


@dataclass(frozen=True)
class ScalarObjective:
    """A scalar function to maximise on [lo, hi], assumed unimodal there.

    ``fn`` maps a float to a float, or an array of lane points to lane values.
    Unimodality is the caller's responsibility; each use in this package
    documents why it holds (and the tests check it by second differences).
    """

    fn: Callable
    lo: float
    hi: float
    tol: float = 1e-10

    def __post_init__(self):
        lo, hi = _finite_interval(self.lo, self.hi, "interval")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "tol", positive("tol", self.tol))


def _finite_interval(lo, hi, what):
    """(lo, hi) as Python floats with -inf < lo < hi < inf, else DomainError."""
    a, b = as_real(lo), as_real(hi)
    if -math.inf < a < b < math.inf:
        return a, b
    raise DomainError(f"{what} must be finite with lo < hi, got [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class SupremumReport:
    """Best point found by a search; None fields signal an empty domain."""

    best_input: float | tuple | None
    best_value: float | None
    evaluations: int
    method: str


def axis_points(start, stop, count):
    """count evenly spaced floats from start to stop, the last exactly stop.

    The arithmetic of np.linspace, i*step + start, on plain floats.
    """
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def _eval_finite(fn, x):
    import numpy as np
    y = fn(x)
    if not np.isfinite(y).all():
        raise DomainError(f"objective returned a non-finite value {y!r} at x={x}")
    return y


def _pick(cond, x, y):
    import numpy as np
    # [()] makes a 0-d result a numpy scalar, so one-lane objectives get floats.
    return np.where(cond, x, y)[()]


def _out(v):
    import numpy as np
    return float(v) if np.ndim(v) == 0 else v


def maximize_scalar(obj):
    """Golden-section maximisation of a unimodal objective.

    The bracket shrinks by 1/phi per iteration; the step count is fixed up
    front as ceil(log(width/tol)/log(phi)), so the report is a deterministic
    function of the inputs.  best_input is the best point actually
    evaluated, which always lies inside the final bracket.  Lanes (see
    ScalarObjective) run in lockstep, one call per step, and each gets
    bitwise the result of its own one-lane search; evaluations counts all.
    """
    import numpy as np
    a, b = obj.lo, obj.hi
    h = b - a
    if h <= obj.tol:
        x = 0.5 * (a + b)
        y = _eval_finite(obj.fn, x)
        x = np.broadcast_to(x, np.shape(y))
        return SupremumReport(_out(x), _out(y), np.size(y), "golden-section")

    n = int(math.ceil(math.log(h / obj.tol) / math.log(1.0 / INV_PHI)))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = _eval_finite(obj.fn, c)
    yd = _eval_finite(obj.fn, d)
    best_x = _pick(yc >= yd, c, d)
    best_y = _pick(yc >= yd, yc, yd)

    for _ in range(n - 1):
        left = yc > yd    # lanes whose maximum lies left of d
        a, b = _pick(left, a, c), _pick(left, d, b)
        h = INV_PHI * h
        x_new = _pick(left, a + INV_PHI2 * h, a + INV_PHI * h)
        y_new = _eval_finite(obj.fn, x_new)
        c, d = _pick(left, x_new, d), _pick(left, c, x_new)
        yc, yd = _pick(left, y_new, yd), _pick(left, yc, y_new)
        better = y_new > best_y
        best_x, best_y = _pick(better, x_new, best_x), _pick(better, y_new, best_y)

    mid = 0.5 * (a + b)
    y_mid = _eval_finite(obj.fn, mid)
    better = y_mid > best_y
    best_x, best_y = _pick(better, mid, best_x), _pick(better, y_mid, best_y)
    return SupremumReport(_out(best_x), _out(best_y), (n + 2) * np.size(best_y), "golden-section")


def refine_parabolic(fn, x, h=1e-5):
    """One parabolic-fit step through (x - h, x, x + h) around a maximum.

    Any comparison-based search (golden section included) stalls once the
    objective differences near a smooth interior maximum fall under the
    rounding noise of the values, an argmax plateau of order sqrt(eps).
    A single parabola fitted through samples spaced well outside that
    plateau recovers the vertex to ~h^2 truncation error instead.  Returns
    x unchanged if the three points are not locally concave at this scale.
    ``x`` may be an array of lane points.
    """
    import numpy as np
    f0 = _eval_finite(fn, x)
    fp = _eval_finite(fn, x + h)
    fm = _eval_finite(fn, x - h)
    den = fp - 2.0 * f0 + fm
    step = 0.5 * h * (fp - fm) / np.where(den < 0.0, den, -1.0)   # den >= 0: unused
    return _out(_pick(den >= 0.0, x, x - step))


def _as_resolutions(resolution, k):
    if isinstance(resolution, int):
        res = [resolution] * k
    else:
        res = [int(n) for n in resolution]
        if len(res) != k:
            raise DomainError(f"got {len(res)} resolutions for {k} axes")
    for n in res:
        if n < 2:
            raise DomainError(f"resolution must be >= 2 per axis, got {n}")
    return res


def _grid_scan(objective, axes):
    """Supremum over the product grid; first maximum in C order wins ties.

    When there are several axes the scan is chunked over the first one to
    keep memory flat, which preserves the lexicographic tie-break: earlier
    chunks win ties, and np.argmax already returns the first maximum within
    a chunk.
    """
    import numpy as np
    best_val = -math.inf
    best_point = None
    evaluations = 0

    def scan_block(block_axes):
        nonlocal best_val, best_point, evaluations
        shape = tuple(len(ax) for ax in block_axes)
        coords = np.meshgrid(*block_axes, indexing="ij", sparse=True)
        vals = np.asarray(objective(*coords), dtype=float)
        if vals.shape != shape:   # a lower-rank result; argmax copies this read-only view
            vals = np.broadcast_to(vals, shape)
        flat = int(np.argmax(vals))   # argmax stops at the first NaN
        val = float(vals.flat[flat])
        idx = np.unravel_index(flat, shape)
        point = tuple(float(ax[i]) for ax, i in zip(block_axes, idx))
        if math.isnan(val):
            raise DomainError(f"objective returned NaN at {point}")
        evaluations += int(np.count_nonzero(vals > -np.inf))
        if val > best_val:
            best_val, best_point = val, point

    if len(axes) == 1:
        scan_block(axes)
    else:
        for i in range(len(axes[0])):
            scan_block([axes[0][i:i + 1], *axes[1:]])

    return best_point, best_val, evaluations


def sup_constrained_grid(objective, bounds, resolution=50, refine=True):
    """Supremum of a vectorised objective over a rectangular grid.

    ``objective`` receives open grid coordinates (``np.meshgrid(...,
    indexing="ij", sparse=True)``, chunked over the first axis), so work on
    one axis is done once per axis value; its result is broadcast to the
    chunk.  It returns -inf at infeasible points, which ``evaluations`` does
    not count, and a NaN raises DomainError.  Each result is read in full
    before the objective is called again and no reference to it is kept, so
    an objective may return the same scratch buffer on every call.  An empty
    feasible set is an answer, not an error: the report comes back with None
    fields and zero evaluations.

    With ``refine`` the coarse best point is re-bracketed by one coarse step
    per axis and re-scanned on a 10x finer local grid; this buys accuracy
    cheaply without any claim of convergence.
    """
    import numpy as np
    k = len(bounds)
    if not 1 <= k <= 5:
        raise DomainError(f"grid search supports 1 to 5 axes, got {k}")
    res = _as_resolutions(resolution, k)
    for (lo, hi) in bounds:
        if not lo < hi:
            raise DomainError(f"empty axis [{lo}, {hi}]")

    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, res)]
    best_point, best_val, evaluations = _grid_scan(objective, axes)
    method = "grid"

    if best_point is None:
        return SupremumReport(None, None, 0, method)

    if refine:
        fine_axes = []
        for (lo, hi), n, x in zip(bounds, res, best_point):
            step = (hi - lo) / (n - 1)
            fine_axes.append(np.linspace(max(lo, x - step), min(hi, x + step), 21))
        point, val, extra = _grid_scan(objective, fine_axes)
        evaluations += extra
        if point is not None and val > best_val:
            best_point, best_val = point, val
        method = "grid+refine"

    return SupremumReport(best_point, best_val, evaluations, method)


def find_root_scalar(g, bracket, tol=1e-12):
    """Bisection root of a continuous function with a sign change on the bracket."""
    lo, hi = bracket
    a, b = _finite_interval(lo, hi, "bracket")
    tol = positive("tol", tol)
    fa = g(a)
    fb = g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={fa}, g(b)={fb}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval no longer splittable in floats
            break
        fm = g(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)
