"""Built-in self-check suites: every closed-form bound against brute force.

Each suite pits a closed form from `engine` or `fridge` against an
independent numerical route (a grid scan plus seeded draws, a
golden-section optimum, a bisection-located sign change) and reports the
worst deviation it saw.  The ceiling's exact-efficiency kernel is
written here in vectorised numpy and shares nothing with `cycle` but the
inputs.  Its grid scan and its draws run the kernel's steps with the
bits of a run at every point, and evaluate eta only where it can be the
best.  Each step names its scratch buffers, new arrays by default; only
the draw rows pass their own, shared between factors.  Only the ceiling
and optimality suites need numpy, and import it when they run.  The
ceiling's grid runs on a worker thread, which then shares the draws with
the caller; the report has the bits of a serial run.
"""

import math

from . import engine, fridge
from ._record import Record
from .errors import DomainError, nonnegative_int
from .oracle import axis_points, find_root_scalar, maximize_scalar, refine_parabolic
from .special import sech

__all__ = [
    "CheckResult",
    "SUITES",
    "ceiling_check",
    "exact_efficiency",
    "identities_check",
    "optimality_check",
    "run_suite",
    "windows_check",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
]

DEFAULT_BUDGET = 1_000_000   # seeded draws of the ceiling check
DEFAULT_SEED = 20250810


class CheckResult(Record):
    """Outcome of one check: worst observed violation and the work done."""

    def __init__(self, name, passed, worst, evaluations, detail):
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["worst"] = worst
        d["evaluations"] = evaluations
        d["detail"] = detail


def exact_efficiency(a, b, z, r):
    """Exact sudden-quench efficiency in scale-free variables (vectorised).

    a = beta_cold*omega1, b = beta_hot*omega2, z = omega1/omega2.  Uses
    1 / [2/(1-z^2) + 1/(x-1)], x = z dh coth(b/2) tanh(a/2), independent of
    `cycle`'s corner energies.  The inputs broadcast; the result is -inf off
    the engine region: unless x > 1 (positive work) and a > b z.

    The result is a new array of the broadcast shape, computed in place;
    factors of fewer axes keep their shape, every step the operands and
    order of the textbook formula.  A 0-d point has the bits it has in an
    array.

    Below b = ln(DBL_MAX) = 709.78 an overflowing term (2 + expm1 b)
    sinh(r)^2, or an x that overflows at a tiny b, is inf, its limit
    (eta = (1 - z^2)/2), with no warning.  Past that cut, where expm1(b)
    overflows, and where a/2 or b/2 is below 1e-310 (rounded or 0), x is
    taken in log space.  Arguments that are not real numbers or arrays of
    them (bools and strings included), shapes that do not broadcast, and
    any lane outside the domain a > 0, b > 0, 0 < z < 1, r >= 0 (NaN
    included) raise DomainError; +inf in a, b or r takes its limit.
    """
    import numpy as np
    try:
        args = [np.asarray(v) for v in (a, b, z, r)]
        shape = np.broadcast_shapes(*(v.shape for v in args))
    except ValueError as exc:   # a ragged list, or shapes that do not broadcast
        raise DomainError(f"a, b, z, r must be arrays that broadcast: {exc}") from None
    for name, v in zip("abzr", args):
        if v.dtype.kind not in "fiu":
            raise DomainError(f"{name} must be real numbers, got {v!r}")
    a, b, z, r = (v.astype(float, copy=False) for v in args)
    for name, v, inside, domain in (("a", a, a > 0.0, "> 0"), ("b", b, b > 0.0, "> 0"),
                                    ("z", z, (z > 0.0) & (z < 1.0), "inside (0, 1)"),
                                    ("r", r, r >= 0.0, ">= 0")):
        if not inside.all():
            raise DomainError(f"{name} must be {domain} in every lane, got {v!r}")
    out = np.empty(shape)
    # Past b = ln DBL_MAX expm1(b) is inf, and inf * 0 is NaN at r = 0; those
    # lanes are taken in log space below.
    with np.errstate(over="ignore", invalid="ignore"):
        _zdh_into(b, r, z, out)
    lost = np.broadcast_to((0.5 * a < 1e-310) | (0.5 * b < 1e-310) | (b > 709.782712893384),
                           shape)
    out[lost] = 1.0   # so the kernel forms 1 * 0, not inf * 0; replaced below
    eta = _eta_into(a, b, z, out)
    if lost.any():
        eta[lost] = _log_space_eta(*(np.broadcast_to(v, shape)[lost] for v in (a, b, z, r)))
    return eta


def _log_space_eta(a, b, z, r):
    """eta from ln x = ln z + ln dh + ln 2tanh(a/2) - ln 2tanh(b/2), about
    2000 eps off, with ln sinh r = r - ln 2 past r = 20 and 2tanh(v/2) = v
    below v = 1e-300."""
    import numpy as np
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_s = np.where(r < 20.0, np.log(np.sinh(r)), r - np.log(2.0))
        log_dh = np.logaddexp(0.0, np.logaddexp(0.0, b) + 2.0 * log_s)
        x = np.exp(np.log(z) + log_dh + np.log(np.where(a < 1e-300, a, 2.0 * np.tanh(0.5 * a)))
                   - np.log(np.where(b < 1e-300, b, 2.0 * np.tanh(0.5 * b))))
    inside = (x > 1.0) & (a > b * z)
    _eta_tail(x, z)
    return np.where(inside, x, -np.inf)


# The kernel's steps write their result into x.  Each names its scratch,
# which defaults to a new array of the factor's shape; a caller that passes
# one buffer for several factors must read each for the last time before
# the next is written.  Every ufunc call nests on the argument as given, so
# a 0-d factor, whose ufunc result is a numpy scalar, needs no buffer.

def _zdh_into(b, r, z, x, fb=None, fr=None, dh=None):
    """The kernel's first half: x = z dh, dh = 1 + (2 + expm1 b) sinh(r)^2."""
    import numpy as np
    e = np.add(2.0, np.expm1(b, out=fb), out=fb)
    s = np.sinh(r, out=fr)
    p = np.multiply(e, np.multiply(s, s, out=fr), out=dh)   # s s: what ** 2 does to an array
    return np.multiply(np.add(1.0, p, out=dh), z, out=x)


def _engine_into(a, b, z, x, fa=None, fb=None, bz=None, colder=None, inside=None):
    """x = z dh tanh(a/2) / tanh(b/2) from x = z dh, in place, and the engine
    region, x > 1 and a > b z, which it returns."""
    import numpy as np
    x *= np.tanh(np.multiply(0.5, a, out=fa), out=fa)
    # x = inf is the limit at a tiny b; 0/0, where both tanh underflow, is NaN
    # and fails x > 1 below, so the point is off the engine region.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x /= np.tanh(np.multiply(0.5, b, out=fb), out=fb)
    return np.logical_and(np.greater(x, 1.0, out=inside),
                          np.greater(a, np.multiply(b, z, out=bz), out=colder), out=inside)


def _eta_into(a, b, z, x):
    """The kernel's second half: eta from x = z dh, in place, -inf off the
    engine region.

    Each step is a rounded product, quotient or sum with a positive factor,
    or a reciprocal of a positive number, so where the point is an engine
    eta does not fall as z dh rises.  The grid pass relies on that.
    """
    import numpy as np
    outside = np.logical_not(_engine_into(a, b, z, x))
    _eta_tail(x, z)
    np.copyto(x, -np.inf, where=outside)
    return x


def _eta_tail(x, z, fz=None):
    """eta = 1 / (2 / (1 - z z) + 1 / (x - 1)) from x, in place.  On an
    engine row 1 / (x - 1) >= 0, so eta <= U(z) = 1 / (2 / (1 - z z)):
    rounding is monotone."""
    import numpy as np
    x -= 1.0
    with np.errstate(divide="ignore"):   # 1/0 happens only off the engine region
        np.divide(1.0, x, out=x)
        x += np.divide(2.0, np.subtract(1.0, np.multiply(z, z, out=fz), out=fz), out=fz)
        np.divide(1.0, x, out=x)
    return x


DRAW_CHUNK = 1 << 14   # seeded draws generated and judged per step
# (a, b, z, r) = (beta_cold omega1, beta_hot omega2, omega1/omega2, r)
CEILING_BOX = ((1e-4, 10.0), (1e-4, 10.0), (1e-4, 0.9999), (0.0, 10.0))
GRID_N = 48     # points per axis of the ceiling's grid over CEILING_BOX
REFINE_N = 21   # points per axis of its refinement around the grid's best point


def ceiling_check(samples=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    """Search feasible engine configurations for the efficiency supremum.

    Deterministic grid over CEILING_BOX plus a seeded uniform batch of
    ``samples`` extra draws in the same box (0: grid only), DRAW_CHUNK at a
    time.  The grid runs on a worker thread, in a copy of the caller's
    context (numpy's error state included), which then judges draw chunks
    with the caller's thread; what it raises is raised here, after the
    join.  The max of the best values and the sum of the counts do not
    depend on who judged what, so the report has the bits of a serial run.
    The caller allocates its draw buffers before the worker starts, the
    worker after the grid's arrays are freed.  Passes when every efficiency
    seen is below 1/2 and the supremum still clears 0.45 (the bound is
    tight).
    """
    import contextvars
    import itertools
    import threading
    samples = nonnegative_int("samples", samples)
    seed = nonnegative_int("seed", seed)
    claims = itertools.count()   # draw chunk indices, taken by both threads
    legs = []   # the worker's (best, evaluations) pairs, or what it raised

    def run_worker():
        try:
            legs.append(_grid_leg())
            legs.append(_draw_leg(samples, seed)(claims))   # its buffers only now
        except BaseException as exc:   # raised again on the caller's thread
            legs.append(exc)

    draw_leg = _draw_leg(samples, seed)   # its buffers live until the return
    worker = threading.Thread(target=contextvars.copy_context().run, args=(run_worker,),
                              name="ceiling-grid")
    worker.start()
    try:
        best, evaluations = draw_leg(claims)
    finally:
        worker.join()
    for leg in legs:
        if isinstance(leg, BaseException):
            raise leg
        best = max(best, leg[0])
        evaluations += leg[1]
    best = float(best)
    passed = 0.45 <= best < 0.5
    return CheckResult(
        name="efficiency-ceiling",
        passed=passed,
        worst=best,
        evaluations=int(evaluations),
        detail=(
            f"sup eta = {best:.12g} over {evaluations} feasible engine points "
            f"({GRID_N}^4 grid + {REFINE_N}^4 refinement, plus {samples} seeded draws, "
            f"seed={seed}); require 0.45 <= sup < 0.5"
        ),
    )


def _grid_leg():
    """The ceiling's grid leg: the best efficiency and the feasible count of
    a GRID_N^4 grid over CEILING_BOX, then of a REFINE_N^4 grid over one
    coarse step on each side of the coarse best point, clipped to the box.
    The fine pass replaces the first maximum in C order only if strictly
    greater.
    """
    import numpy as np
    best, point, evaluations = _grid_pass([np.linspace(lo, hi, GRID_N) for lo, hi in CEILING_BOX])
    fine = [np.linspace(max(lo, x - (hi - lo) / (GRID_N - 1)),
                        min(hi, x + (hi - lo) / (GRID_N - 1)), REFINE_N)
            for (lo, hi), x in zip(CEILING_BOX, point)]
    fine_best, _, extra = _grid_pass(fine)
    return max(best, fine_best), evaluations + extra


def _grid_pass(axes):
    """(best, its first point in C order, feasible count) of the product
    grid of ``axes``, with the bits of the kernel run at every point.

    Along r only P = z dh varies, and eta does not fall as P rises, so the
    best of an (a, b, z) row is eta at its largest P.  A point is feasible
    exactly when a > b z and P >= T(a, b) (`_thresholds`).  T must not rise
    with a (DomainError), so each test holds on a top run of the sorted a,
    found by one sorted search; a (b, r, z) point counts the shorter run.
    A NaN raises DomainError.  With no feasible point the best is -inf at
    the grid's first point.
    """
    import numpy as np
    a, b, z, r = (np.asarray(ax, dtype=float) for ax in axes)
    a3, b3, z3 = a[:, None, None], b[None, :, None], z[None, None, :]
    # P on (b, r, z), then the face of row maxima on (a, b, z), in one buffer.
    buffer = np.empty(max(a.size, r.size) * b.size * z.size)
    p = buffer[:b.size * r.size * z.size].reshape(b.size, r.size, z.size)
    _zdh_into(b[:, None, None], r[None, :, None], z3, p)
    up = np.array(sorted(a.tolist()))   # not np.sort, which pages in more of numpy
    threshold = _thresholds(np.tanh(0.5 * up)[::-1], np.tanh(0.5 * b)[:, None])   # (b, falling a)
    if np.any(threshold[:, 1:] < threshold[:, :-1]):
        raise DomainError("the engine threshold of z dh rises with a on the grid")
    colder = a.size - np.searchsorted(up, np.multiply(b[:, None], z), side="right")   # a > b z
    warm = (np.searchsorted(t, block, side="right") for t, block in zip(threshold, p))   # P >= T
    evaluations = sum(int(np.minimum(w, top, out=w).sum()) for w, top in zip(warm, colder))
    peak = p.max(axis=1)
    del p, threshold, colder
    face = buffer[:a.size * b.size * z.size].reshape(a.size, b.size, z.size)
    np.copyto(face, peak)
    _eta_into(a3, b3, z3, face)
    k = int(face.argmax())   # the first maximum; argmax stops at the first NaN
    best = float(face.flat[k])
    i, j, m = np.unravel_index(k, face.shape)
    if math.isnan(best):
        raise DomainError(f"exact efficiency is NaN on the grid slab a = {a[i]}")
    row = exact_efficiency(a[i], b[j], z[m], r)
    n = int(row.argmax())
    if row[n] != best:   # the premise that eta rises with P
        raise DomainError(f"the r row's best {row[n]} is not the face's {best}")
    return best, (float(a[i]), float(b[j]), float(z[m]), float(r[n])), evaluations


def _thresholds(ta, tb):
    """T(a, b): the least double P with x = (P ta) / tb > 1 in the kernel's
    rounding, so that P >= T is x > 1; stepped from tb/ta by nextafter.
    DomainError unless T holds and its predecessor does not."""
    import numpy as np

    def works(p):
        return p * ta / tb > 1.0

    t = tb / ta
    for _ in range(4):   # tb/ta is within a few ulps of T
        t = np.where(works(t), t, np.nextafter(t, np.inf))
        below = np.nextafter(t, -np.inf)
        t = np.where(works(below), below, t)
    if not (np.all(works(t)) and not np.any(works(np.nextafter(t, -np.inf)))):
        raise DomainError("no engine threshold of z dh found for the grid's (a, b)")
    return t


def _draw_leg(samples, seed):
    """One thread's seeded draw leg: a function that judges the chunks it
    claims from ``claims``, an iterator of chunk indices shared by the
    threads, up to the first index past the last chunk, and returns their
    best efficiency (-inf if none) and feasible count.

    The draws are the numbers of rng.uniform(low, high, size=(samples, 4))
    over CEILING_BOX, low + (high - low) * U, DRAW_CHUNK rows at a time.
    The leg's own PCG64(seed) is advanced to chunk k (Generator.random
    takes one 64-bit output per double), so chunk k has the rows of the
    one-shot stream whichever leg claims it.  The map to (a, b, z, r) is a
    product with the column of spans and a sum with the column of lows, as
    one column at a time would give.  One (4, n) float block holds the
    uniforms (viewed (n, 4)), then `_judge_rows`' two factor rows and x.
    The best so far sets the next chunk's cut (`_z_cut`).
    """
    import numpy as np
    chunks = -(-samples // DRAW_CHUNK)
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    n = min(DRAW_CHUNK, samples)
    block = np.empty((4, n))
    draws = np.empty((4, n))
    colder, inside = np.empty((2, n), dtype=bool)
    low, high = np.array(CEILING_BOX).T[:, :, None]
    span = high - low

    def views(m):   # the buffers cut to m rows
        uniform = block.reshape(n, 4)[:m]
        rows = (*draws[:, :m], block[2, :m], block[0, :m], block[1, :m], colder[:m], inside[:m])
        return uniform, uniform.T, draws[:, :m], rows

    whole, tail = views(n), views(samples - (chunks - 1) * n)

    def run(claims):
        best, cut, evaluations, used = -math.inf, math.inf, 0, 0
        for k in claims:
            if k >= chunks:
                break
            uniform, columns, abzr, rows = whole if k < chunks - 1 else tail
            bits.advance(4 * DRAW_CHUNK * k - used)
            rng.random(out=uniform)
            used = 4 * DRAW_CHUNK * k + uniform.size
            np.multiply(columns, span, out=abzr)
            abzr += low
            count, top = _judge_rows(*rows, cut)
            evaluations += count
            if top > best:
                best, cut = top, _z_cut(top)
        return best, evaluations

    return run


def _judge_rows(a, b, z, r, x, f0, f1, colder, inside, cut):
    """(feasible count, best eta or -inf) of the draw rows a, b, z, r.

    x and the engine region are the kernel's, step for step, with the
    factors sharing the rows f0 and f1 by name.  eta's tail runs only on
    engine rows with z < cut, gathered into f0 and f1: at z >= cut eta <=
    U(z) <= U(cut) <= the best so far.
    """
    import numpy as np
    _zdh_into(b, r, z, x, fb=f0, fr=f1, dh=f1)
    _engine_into(a, b, z, x, fa=f0, fb=f0, bz=f0, colder=colder, inside=inside)
    count = int(np.count_nonzero(inside))
    judged = np.less(z, cut, out=colder)
    judged &= inside
    rows = np.flatnonzero(judged)
    if not rows.size:
        return count, -math.inf
    f0, f1 = f0[:rows.size], f1[:rows.size]
    np.take(x, rows, out=f0, mode="clip")   # no copy of out, unlike np.compress
    np.take(z, rows, out=f1, mode="clip")
    return count, float(_eta_tail(f0, f1, fz=f1).max())


def _z_cut(best):
    """A z from which eta cannot beat ``best``: U(z) (`_eta_tail`) does not
    rise with z, and U(cut) <= best holds, checked; inf if it fails."""
    import numpy as np
    cut = np.sqrt(np.float64(max(1.0 - 2.0 * best, 0.0)))
    with np.errstate(divide="ignore"):
        for _ in range(4):
            if 1.0 / (2.0 / (1.0 - cut * cut)) <= best:
                return float(cut)
            cut = np.nextafter(cut, np.inf)
    return math.inf


def work_argmax(tau, r):
    """Locate the work-maximising ratio numerically: golden section plus one
    parabolic polish step.  Returns (z_best, evaluations).

    Arrays tau, r search one lockstep lane per pair, each as if alone.  The
    work objective is unimodal in z on (0, 1): it decomposes into a
    constant minus the square of t = sg/z - z, which falls strictly in z.
    So the maximum lies inside the search bracket [5e-3, 0.9999] exactly
    when t changes sign there, from + to -.  Where it does not, DomainError
    is raised before the objective is evaluated: at tau = 1/2 that is from
    r of about 10.6 on, and from about 373 on sech 2r underflows to 0.
    The polish step is oracle.POLISH_H (the optimality rows' bits depend on
    it); its error grows as z* nears the lower bracket end (README).
    """
    import numpy as np
    if not (np.all((tau > 0.0) & (tau < 1.0)) and np.all(np.isfinite(r) & (r >= 0.0))):
        raise DomainError(f"need 0 < tau < 1 and finite r >= 0, got tau={tau}, r={r}")
    u = np.vectorize(sech, otypes=[float])(2.0 * np.asarray(r, dtype=float))
    sg = np.sqrt(tau * u)
    lo, hi = 5e-3, 0.9999
    if not (np.all(sg / lo - lo > 0.0) and np.all(sg / hi - hi < 0.0)):
        raise DomainError(f"the work maximum lies outside the search bracket [{lo}, {hi}] "
                          f"at tau={tau}, r={r}")
    def work(zz):
        return engine._grouped_work(zz, sg, u)
    rep = maximize_scalar(work, lo, hi)
    polished = refine_parabolic(work, rep.best_input)
    return polished, rep.evaluations + 3 * np.size(polished)


def optimality_check():
    """Numerical work optimum against the closed forms on an (eta_c, r) grid,
    searched in lockstep with one lane per grid point."""
    import numpy as np
    n, tol_z, tol_eta = 20, 1e-8, 1e-10
    eta_c, r = (g.ravel() for g in np.meshgrid(
        np.linspace(0.05, 0.95, n), np.linspace(0.0, 5.0, n), indexing="ij"))
    tau = 1.0 - eta_c
    z_num, evaluations = work_argmax(tau, r)
    worst_z = worst_eta = 0.0
    for e, t, rr, z in zip(eta_c.tolist(), tau.tolist(), r.tolist(), z_num.tolist()):
        worst_z = max(worst_z, abs(z - engine.z_star(t, rr)))
        eff = engine.efficiency_ht(z, t, rr)
        worst_eta = max(worst_eta, abs(eff - engine.eta_mw(e, rr)))
    passed = bool(worst_z < tol_z and worst_eta < tol_eta)
    return CheckResult(
        name="work-optimum",
        passed=passed,
        worst=float(max(worst_z, worst_eta)),
        evaluations=int(evaluations),
        detail=(
            f"max |z*_num - closed form| = {worst_z:.3g} (tol {tol_z:g}), "
            f"max |eta(z*) - eta_mw| = {worst_eta:.3g} (tol {tol_eta:g}) "
            f"on a {n}x{n} grid"
        ),
    )


def identities_check():
    """Reduction identities: squeezed bounds equal thermal bounds at the
    generalized Carnot point, and the fridge bound collapses the same way."""
    tol = 1e-12
    pairs = []   # (squeezed form, thermal form at the effective parameter)
    for eta_c in axis_points(0.05, 0.95, 19):
        for r in axis_points(0.0, 5.0, 11):
            gen = engine.generalized_carnot(eta_c, r)
            pairs += [(engine.eta_up(eta_c, r), engine.eta_up_thermal(gen)),
                      (engine.eta_mw(eta_c, r), engine.eta_rk(gen))]
    for r in axis_points(0.0, 3.0, 13):
        for frac in axis_points(0.55, 0.98, 10):
            tau = frac * (1.0 / math.cosh(2.0 * r))
            pairs.append((fridge.zeta_up(tau, r), fridge.zeta_up_thermal(frac / (1.0 - frac))))
    worst = max(abs(a - b) / abs(a) for a, b in pairs)
    return CheckResult(
        name="reduction-identities",
        passed=worst < tol,
        worst=worst,
        evaluations=len(pairs),
        detail=f"max relative deviation {worst:.3g} (tol {tol:g})",
    )


def windows_check():
    """Squeezing-window endpoints against the cooling heat's sign change.

    The r at which the cooling heat changes sign sweeps across the window
    as z runs over (0, 1): bisection on the z -> 0 limiting curve must land
    on the lower endpoint, and on the z -> 1 curve on the upper endpoint.
    Lower endpoints that sit at 0 have no sign change; there the check is
    that cooling is already open at r = 0+.
    """
    tol = 1e-9
    worst = 0.0
    calls = [0]

    def q4_at(z_edge, tau):
        def g(r):
            calls[0] += 1
            return fridge.cooling_heat_ht(z_edge, tau, r)
        return g

    for tau in (0.25, 0.5, 0.75):
        lo, hi = fridge.r_window(tau)
        root_hi = find_root_scalar(q4_at(1.0, tau), (0.0, 5.0))
        worst = max(worst, abs(root_hi - hi))
        if lo > 0.0:
            root_lo = find_root_scalar(q4_at(0.0, tau), (0.0, 5.0))
            worst = max(worst, abs(root_lo - lo))
        else:
            calls[0] += 1
            if not fridge.cooling_heat_ht(0.0, tau, 1e-6) > 0.0:
                worst = math.inf
    return CheckResult(
        name="cooling-windows",
        passed=worst < tol,
        worst=worst,
        evaluations=calls[0],
        detail=f"max |Q4 sign change - window endpoint| = {worst:.3g} (tol {tol:g})",
    )


SUITES = ("ceiling", "optimality", "identities", "windows", "all")


def run_suite(name, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    """Run one named suite (or all of them); budget and seed go to ceiling_check."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES}")
    # The checks of SUITES[:-1], in its order.
    checks = (lambda: ceiling_check(budget, seed), optimality_check, identities_check, windows_check)
    return [check() for suite, check in zip(SUITES, checks) if name in (suite, "all")]
