"""Refrigerator performance with a squeezed cold reservoir.

High-temperature, sudden-quench regime in the variables z = omega1/omega2,
tau = beta_hot/beta_cold and the cold-bath squeezing r.  The combination
``tau_c = tau * cosh(2r)`` is the temperature ratio against the cold bath's
effective temperature.  A refrigerator is what the sign rule of
`cycle._classify_mode` (a cycle's ``mode_label``) says: here some z
refrigerates exactly when tau_c > 1/2, and every z does once tau_c >= 1,
with a COP that grows without bound as z -> 1.  So the bound zeta_up,
``cooling_feasible`` and the windows (``fridge_report``'s ``tau_window``
and ``r_window``) mean tau_c in (1/2, 1), where a finite COP bound exists.
All windows are strict: their endpoints evaluate to the infeasible error
rather than to a boundary value.
"""

import math

from ._record import Record
from .cycle import _classify_mode
from .errors import DomainError, InfeasibleError, ModeError, as_real, nonnegative, unit_open
from .special import sech

__all__ = [
    "FridgeBoundsReport",
    "FridgeParams",
    "cooling_heat_ht",
    "cop_ht",
    "fridge_report",
    "r_window",
    "zeta_up",
    "zeta_up_thermal",
]


def _tau_c(tau, u):
    """tau cosh(2r) from u = sech(2r)."""
    return math.inf if u == 0.0 else tau / u


class FridgeParams(Record):
    """Refrigerator operating point ``z``, ``tau``, ``r``; the heats are in units of 1/beta_hot."""

    def __init__(self, z, tau, r=0.0):
        d = self.__dict__
        d["z"] = unit_open("z", z)
        d["tau"] = unit_open("tau", tau)
        d["r"] = nonnegative("r", r)


class FridgeBoundsReport(Record):
    """Carnot COP, the squeezed bound (None when infeasible) and both windows."""

    def __init__(self, zeta_c, zeta_up, tau_window, r_window, cooling_feasible, reason=None):
        d = self.__dict__
        d["zeta_c"] = zeta_c
        d["zeta_up"] = zeta_up
        d["tau_window"] = tau_window
        d["r_window"] = r_window
        d["cooling_feasible"] = cooling_feasible
        d["reason"] = reason


def _cooling_heat(z2, tc):
    """q4 at z^2 and tau_c.  _hot_heat gives q2, which is -inf where 2 z^2
    underflows to 0 (z below ~1.5e-162), its limit: the numerator is -tau_c."""
    return (2.0 * tc - 1.0 - z2) / 2.0


def _hot_heat(z2, tc):
    return -math.inf if z2 == 0.0 else (2.0 * z2 - tc * (1.0 + z2)) / (2.0 * z2)


def cooling_heat_ht(z, tau, r):
    """Heat drawn from the cold reservoir, (2 tau cosh 2r - 1 - z^2) / 2, in units of 1/beta_hot.

    Accepts the closed interval z in [0, 1] so the edges of the cooling
    window can be probed; the endpoints bracket where the sign change in r
    sweeps as z runs over the open interval.
    """
    zf = as_real(z)
    if not 0.0 <= zf <= 1.0:
        raise DomainError(f"z must lie in [0, 1], got {z!r}")
    tau = unit_open("tau", tau)
    tc = _tau_c(tau, sech(2.0 * nonnegative("r", r)))
    return _cooling_heat(zf * zf, tc)


def cop_ht(p):
    """Coefficient of performance Q_cold / W_in at one operating point.

    The ratio 2 z^2 q4 / ((1 - z^2)(tau_c - z^2)) of the high-temperature
    heats of the validated FridgeParams, which tends to 0 with z^2; raises
    ModeError, naming the actual operating mode, whenever the point does not
    cool (q4 <= 0, including the exact window boundary where cooling vanishes).
    """
    z2, tc = p.z * p.z, _tau_c(p.tau, sech(2.0 * p.r))
    q4 = _cooling_heat(z2, tc)
    if not math.isfinite(q4):
        raise DomainError(
            f"tau*cosh(2r) exceeds the double range at r={p.r}; "
            f"the heats are no longer representable"
        )
    if q4 <= 0.0:
        q2 = _hot_heat(z2, tc)
        mode = _classify_mode(q2, q4, q2 + q4)
        raise ModeError("no cooling at z={}, tau={}, r={}: the cycle operates as a {}",
                        p.z, p.tau, p.r, mode._value_, mode=mode)
    return 2.0 * z2 * q4 / ((1.0 - z2) * (tc - z2))


def zeta_up_thermal(zeta_c):
    """COP bound between plain thermal reservoirs: 1 + 3 zc - 2 sqrt(2 zc (1 + zc)).

    Needs zeta_c > 1 (tau > 1/2); below that the cold reservoir sits under
    half the hot temperature and this machine cannot cool it at all.
    """
    zc = as_real(zeta_c)
    if not -math.inf < zc < math.inf:
        raise DomainError(f"zeta_c must be finite, got {zeta_c!r}")
    if zc <= 1.0:
        raise InfeasibleError("cooling requires zeta_c > 1 (the cold reservoir cannot sit below "
                              "half the hot temperature), got zeta_c={}", zc)
    bound = 1.0 + 3.0 * zc - 2.0 * math.sqrt(2.0 * zc * (1.0 + zc))
    if -math.inf < bound < math.inf:
        return bound
    # 2 zc (1 + zc) overflowed (zc >~ 9.5e153): the rationalised form
    # (zc - 1)^2 / (1 + 3 zc + 2 sqrt(2) sqrt(zc) sqrt(1 + zc)), its ratio
    # divided through by zc so that it stays finite up to the double range.
    u = 1.0 / zc
    return (zc - 1.0) * ((1.0 - u) / (u + 3.0 + 2.0 * math.sqrt(2.0) * math.sqrt(1.0 + u)))


def zeta_up(tau, r):
    """COP bound with a squeezed cold reservoir.

    3/(1 - tau_c) - 2 - 2 sqrt(2) sqrt(tau_c / (tau_c - 1)^2) with
    tau_c = tau cosh(2r); identical to zeta_up_thermal(tau_c/(1 - tau_c)).
    Raises InfeasibleError naming the violated side when tau_c leaves the
    open window (1/2, 1); past 1 every z still refrigerates, with no finite bound.
    """
    tau = unit_open("tau", tau)
    bound, reason = _zeta_up(_tau_c(tau, sech(2.0 * nonnegative("r", r))), tau, r)
    if reason is not None:
        raise InfeasibleError(reason)
    return bound


def _zeta_up(tc, tau, r):
    """(zeta_up, None) inside the window, else (None, the reason); tau and r only name the point."""
    if tc <= 0.5:
        return None, (f"tau*cosh(2r) <= 1/2: effective cold temperature at or below half "
                      f"the hot temperature (tau={tau}, r={r})")
    if tc >= 1.0:
        return None, (f"tau*cosh(2r) >= 1: effective cold temperature at or above the hot "
                      f"temperature; every z refrigerates, with unbounded COP (tau={tau}, r={r})")
    d = tc - 1.0
    return 3.0 / (1.0 - tc) - 2.0 - 2.0 * math.sqrt(2.0) * math.sqrt(tc / (d * d)), None


def r_window(tau):
    """Open interval of squeezing strengths with a finite COP bound at ratio tau.

    (acosh(1/(2 tau))/2, acosh(1/tau)/2) for tau below 1/2; from tau = 1/2
    upward the lower endpoint is 0 (cooling is already open at r = 0+).
    Where 1/tau overflows (tau below ~5.6e-309) the endpoints are
    -ln(tau)/2 and (ln 2 - ln tau)/2, finite for every tau.
    """
    return _r_window(unit_open("tau", tau))


def _r_window(tau):
    y = 1.0 / tau
    if y == math.inf:   # tau < 1/DBL_MAX, where acosh(y) is ln(2y) to far below an ulp
        ln_tau = math.log(tau)
        return (-0.5 * ln_tau, 0.5 * (math.log(2.0) - ln_tau))
    hi = 0.5 * math.acosh(y)
    lo = 0.5 * math.acosh(1.0 / (2.0 * tau)) if tau < 0.5 else 0.0
    return (lo, hi)


def fridge_report(tau, r=0.0):
    """Report at (tau, r): the Carnot COP tau/(1 - tau), tau_window (u/2, u) at u = sech(2r);
    cooling_feasible: a finite COP bound exists, 1/2 < tau cosh 2r < 1."""
    tau = unit_open("tau", tau)
    r = nonnegative("r", r)
    u = sech(2.0 * r)
    bound, reason = _zeta_up(_tau_c(tau, u), tau, r)
    return FridgeBoundsReport(
        zeta_c=tau / (1.0 - tau),
        zeta_up=bound,
        tau_window=(0.5 * u, u),
        r_window=_r_window(tau),
        cooling_feasible=reason is None,
        reason=reason,
    )
