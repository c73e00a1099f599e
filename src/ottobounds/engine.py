"""Closed-form engine performance in the sudden-quench, high-temperature regime.

Everything is expressed in the reservoir variables

    z   = omega1/omega2          compression ratio, 0 < z < 1
    tau = beta_hot/beta_cold     temperature ratio, 0 < tau < 1 (= 1 - eta_c)
    r   = hot-bath squeezing parameter, r >= 0

and evaluated through u = sech(2r), which underflows gracefully, instead of
cosh(2r), which overflows near r ~ 355.  The recurring combination
``g = tau * sech(2r)`` is the temperature ratio against the squeezed bath's
effective temperature.  The engine bounds are functions of (g, d = 1 - g) from
``_g_d``, and the thermal bounds are those functions at (1 - eta_c, eta_c).
"""

import math
import sys

from ._record import Record
from .errors import DomainError, NoSolutionError, SingularityError, nonnegative, unit_open
from .special import sech

__all__ = [
    "EngineBoundsReport",
    "EngineParams",
    "HT_BETA_OMEGA_MAX",
    "efficiency_ht",
    "engine_report",
    "engine_rows",
    "eta_mw",
    "eta_rk",
    "eta_up",
    "eta_up_thermal",
    "generalized_carnot",
    "work_ht",
    "z_star",
    "z2_of_eta",
]

# Advisory ceiling on beta*omega for trusting the high-temperature forms.
# Their gap to the exact cycle is second order in beta*omega without
# squeezing and first order with it (cycle._delta_h tends to cosh 2r only to
# first order).  Relative gap of the efficiency at z = 0.5, tau = 0.2, for
# beta2*omega2 = 1e-4 / 1e-2 / 0.3: 1.3e-8 / 1.3e-4 / 12 % at r = 0, and
# 1.1e-5 / 1.0e-3 / 1.3 % at r = 0.5.
HT_BETA_OMEGA_MAX = 0.3


class EngineParams(Record):
    """Engine operating point ``z``, ``tau``, ``r``; the work is in units of 1/beta_hot."""

    def __init__(self, z, tau, r=0.0):
        d = self.__dict__
        d["z"] = unit_open("z", z)
        d["tau"] = unit_open("tau", tau)
        d["r"] = nonnegative("r", r)


class EngineBoundsReport(Record):
    """Bounds at one (eta_c, r) point, plus the work-optimal ratio."""

    def __init__(self, eta_c, eta_c_gen, eta_up, eta_mw, z_star, pwc_satisfied):
        d = self.__dict__
        d["eta_c"] = eta_c
        d["eta_c_gen"] = eta_c_gen
        d["eta_up"] = eta_up
        d["eta_mw"] = eta_mw
        d["z_star"] = z_star
        d["pwc_satisfied"] = pwc_satisfied


def work_ht(p):
    """Extracted work per cycle, (1 - z^2)(z^2 cosh 2r - tau) / (2 z^2), in units of 1/beta_hot.

    Positive exactly when the positive-work condition holds.  Evaluated in
    the grouped form

        [(1 - sqrt(g))^2 - (sqrt(g)/z - z)^2] / (2 sech(2r)),

    g = tau sech(2r), which keeps the maximum over z resolvable to machine
    precision; the distributed form loses half its digits to cancellation
    near the optimum.  Returns +inf once sech(2r) underflows (r ~ 370+):
    the numerator is then 1 - z^2 > 0.
    """
    u = sech(2.0 * p.r)
    if u == 0.0:
        return math.inf
    return _grouped_work(p.z, math.sqrt(p.tau * u), u)


def _grouped_work(z, sg, u):
    """Grouped work, sg = sqrt(tau u); products, not ** 2, so floats and arrays agree bitwise."""
    t = sg / z - z
    return ((1.0 - sg) * (1.0 - sg) - t * t) / (2.0 * u)


def efficiency_ht(z, tau, r):
    """High-temperature sudden-quench efficiency at one operating point.

    (1 - z^2)(z^2 cosh 2r - tau) / (2 z^2 cosh 2r - tau (1 + z^2)); positive
    and below 1/2 wherever the positive-work condition holds, negative
    outside it.  Raises SingularityError at the pole of the denominator
    (which lies outside the engine region).
    """
    z = unit_open("z", z)
    tau = unit_open("tau", tau)
    g = tau * sech(2.0 * nonnegative("r", r))
    z2 = z * z
    den = 2.0 * z2 - g * (1.0 + z2)
    if den == 0.0:
        raise SingularityError("efficiency denominator vanishes at z={}, tau={}, r={}", z, tau, r)
    return (1.0 - z2) * (z2 - g) / den


def z_star(tau, r):
    """Compression ratio maximising the extracted work: (tau sech 2r)^{1/4}.

    Within a few ulps also where tau sech 2r is below the smallest normal
    double (`_z_star`); z* itself underflows to 0.0 from r of about 1490.
    """
    tau = unit_open("tau", tau)
    r = nonnegative("r", r)
    return _z_star(tau, r, tau * sech(2.0 * r))


def _z_star(tau, r, g):
    """z* = g^{1/4} from g = tau u, u = sech 2r, at a validated (tau, r).

    Below the smallest normal double g has lost digits, or is 0.0, while z*
    has not: there z* = tau^{1/4} u^{1/4}, and once u is below it too,
    ln u = ln 2 - 2r - log1p(e^{-4r}), whose log1p term is 0.0 from r of
    about 186 on, so u^{1/4} = 2^{1/4} e^{-r/2}.
    """
    if g >= sys.float_info.min:
        return g ** 0.25
    u = sech(2.0 * r)
    if u >= sys.float_info.min:
        return tau ** 0.25 * u ** 0.25
    return tau ** 0.25 * (2.0 ** 0.25 * math.exp(-0.5 * r))


def z2_of_eta(eta, eta_c, r):
    """Squared compression ratio that realises efficiency eta.

    Solves the efficiency relation for z^2 and returns the smaller of its
    two roots, the one that tends to the positive-work boundary
    tau sech(2r) as eta -> 0.  (The larger root tends to the rejected
    degenerate ratio z = 1 there; for eta > 0 both roots realise the same
    efficiency.)  Raises NoSolutionError for eta at or above eta_up, where
    the two roots have merged and vanished, and DomainError below that once
    g = (1 - eta_c) sech(2r) falls under the smallest normal double (from
    r of about 354 on): the root, of the order of g, would be subnormal or
    0.0.

    The smaller root of z^4 - b z^2 + c, c = g (1 - eta), is evaluated as
    2c / (b + sqrt(b^2 - 4c)), the product of the roots over the larger one.
    b > 0 for every eta < 1/2, so nothing cancels; the textbook
    (b - sqrt(b^2 - 4c)) / 2 loses every digit once g is small against
    (1 - 2 eta)^2.
    """
    eta = nonnegative("eta", eta)
    eta_c = unit_open("eta_c", eta_c)
    r = nonnegative("r", r)
    g, d = _g_d(eta_c, r)
    bound = _eta_up(g, d)
    if eta >= bound:
        raise NoSolutionError("no compression ratio reaches eta={} at eta_c={}, r={}; "
                              "the bound is eta_up={}", eta, eta_c, r, bound)
    if g < sys.float_info.min:
        raise DomainError(
            f"z^2 lies below the double range at eta_c={eta_c}, r={r}: "
            f"(1 - eta_c) sech(2r) = {g!r} is not a normal double"
        )
    b = (1.0 - 2.0 * eta) + g * (1.0 + eta)
    disc = b * b - 4.0 * g * (1.0 - eta)
    if disc < 0.0:
        raise NoSolutionError("inversion discriminant negative at eta={}, eta_c={}, r={}",
                              eta, eta_c, r)
    return 2.0 * g * (1.0 - eta) / (b + math.sqrt(disc))


def eta_up(eta_c, r):
    """Upper bound on the engine efficiency, from reservoir parameters only.

    (1 - g)(2 + g - 2 sqrt(2g)) / (2 - g)^2, which is strictly below 1/2
    and tends to it as r grows (past r ~ 370 g underflows and the value is
    1/2 itself); eta_up(eta_c, 0) is eta_up_thermal(eta_c), bit for bit.
    """
    return _eta_up(*_g_d(unit_open("eta_c", eta_c), nonnegative("r", r)))


def _eta_up(g, d):
    """eta_up as 2 d (1 - sqrt(g/2))^2 / (1 + d)^2: exactly 1/2 at g = 0, never above it."""
    h = 1.0 - math.sqrt(0.5 * g)
    e = 1.0 + d
    return 2.0 * d * h * h / (e * e)


def eta_mw(eta_c, r):
    """Efficiency at maximum work: (1 - s)/(2 + s), s = sqrt(g).

    Never exceeds eta_up(eta_c, r); eta_mw(eta_c, 0) is eta_rk(eta_c), bit for bit.
    """
    return _eta_mw(*_g_d(unit_open("eta_c", eta_c), nonnegative("r", r)))


def _eta_mw(g, d):
    """eta_mw as d / ((1 + s)(2 + s)), s = sqrt(g), since 1 - s = d / (1 + s).

    The denominator is expanded to 2 + s(3 + s): 1 + s rounds to 1 for s
    below an ulp, which let eta_mw round to 1/2 above eta_up near g ~ 1e-32.
    """
    s = math.sqrt(g)
    return d / (2.0 + s * (3.0 + s))


def generalized_carnot(eta_c, r):
    """Carnot efficiency against the squeezed bath's effective temperature, d = 1 - g.

    Equals eta_c at r = 0, grows monotonically with r and tends to 1.
    """
    return _g_d(unit_open("eta_c", eta_c), nonnegative("r", r))[1]


def eta_up_thermal(eta_c):
    """Efficiency bound between two plain thermal reservoirs, eta_up at r = 0.

    [3 - 2 sqrt(2(1 - eta_c)) - eta_c] eta_c / (1 + eta_c)^2, which is
    tighter than eta_c/2 everywhere.
    """
    eta_c = unit_open("eta_c", eta_c)
    return _eta_up(1.0 - eta_c, eta_c)


def eta_rk(eta_c):
    """Thermal efficiency at maximum work, eta_mw at r = 0: (1 - s)/(2 + s), s = sqrt(1 - eta_c).

    eta_rk(eta_c) is eta_c / 6 to full precision as eta_c -> 0."""
    eta_c = unit_open("eta_c", eta_c)
    return _eta_mw(1.0 - eta_c, eta_c)


def engine_report(eta_c, r):
    """Bundle the bounds at (eta_c, r) with the PWC flag at the work-optimal ratio.

    Every field comes from one (g, d), with the same expressions as
    generalized_carnot, eta_up, eta_mw and z_star.  The flag is the
    positive-work condition z*^2 > g, and holds where g underflows to 0.0
    (r past about 372), as z*^2 = sqrt(g) > g does.  It is False within a
    few ulps of g = 1 (eta_c below ~3e-16 at r = 0), where z*^2 rounds to g
    or below: engine_report(1e-17, 0.0).
    """
    eta_c = unit_open("eta_c", eta_c)
    r = nonnegative("r", r)
    g, d = _g_d(eta_c, r)
    zs = _z_star(1.0 - eta_c, r, g)
    pwc = zs * zs > g if g > 0.0 else True
    return EngineBoundsReport(eta_c, d, _eta_up(g, d), _eta_mw(g, d), zs, pwc)


def engine_rows(eta_cs, rs):
    """Rows (r, eta_c, eta_up, eta_mw, eta_c_gen) for each eta_c in turn, over the points rs.

    The bounds of a sweep over r (the CLI's fig2): each row has the bits of
    engine_report(eta_c, r)'s fields, and a bad eta_c or r raises the same
    DomainError, but each value is validated once for all the rows.
    An eta_cs or rs that is not iterable raises DomainError too.
    """
    eta_cs = _each(unit_open, "eta_c", eta_cs)
    rs = _each(nonnegative, "r", rs)
    return [(r, eta_c, _eta_up(g, d), _eta_mw(g, d), d)
            for eta_c in eta_cs for r in rs for g, d in (_g_d(eta_c, r),)]


def _each(check, name, values):
    """[check(name, v) for v in values], and DomainError if values is not iterable."""
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"the {name} values must be iterable, got {values!r}") from None
    return [check(name, v) for v in values]


def _g_d(eta_c, r):
    """g = (1 - eta_c) sech(2r) and d = 1 - g at a validated (eta_c, r), from e = exp(-2r).

    sech(2r) = 2e / (1 + e^2) has special.sech's bits; d = eta_c + (1 - eta_c)(1 - e)^2 / (1 + e^2)
    adds two terms >= 0, so nothing cancels, and is eta_c at r = 0.
    """
    e = math.exp(-2.0 * r)
    m = math.expm1(-2.0 * r)
    q = 1.0 + e * e
    tau = 1.0 - eta_c
    return tau * (2.0 * e / q), eta_c + tau * (m * m / q)
