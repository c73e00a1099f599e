"""50-digit references for the tests: each formula of the library once, in mpmath.

Each function takes its float arguments at their exact values, so it
evaluates at the double the library receives (``mpf(0.2)``, not
``mpf("0.2")``), works at 50 significant digits and returns an mpf.  The
formulas are the textbook ones, with no overflow guards or limit
branches: an mpf does not overflow, so they stay right out to the
saturation edges.  Three are rewritten, because below eta_c ~ 1e-50
the textbook 1 - eta_c rounds to 1 even at 50 digits: ``eta_up``,
``eta_mw`` and ``generalized_carnot`` form 1 - g, with
g = (1 - eta_c) sech 2r, as sech(2r)(eta_c + 2 sinh^2 r), and ``eta_mw``
forms 1 - sqrt(g) as (1 - g)/(1 + sqrt(g)).  The library's ``eta_rk``
takes that second rewrite too, so ``test_reference`` also checks the
three against their closed-form limits at eta_c = 1e-60, an independent
route.  This module imports nothing from ``ottobounds``, and
``tests/test_reference.py`` keeps it that way, so it stays an independent
route to every number it checks.
"""

import functools

import mpmath as mp


def _digits(fn):
    """Run ``fn`` at 50 digits, its int and float arguments made exact mpfs."""
    @functools.wraps(fn)
    def at_50_digits(*args, **kwargs):
        with mp.workdps(50):
            exact = (mp.mpf(v) if isinstance(v, (int, float)) else v for v in args)
            return fn(*exact, **kwargs)
    return at_50_digits


# ---------------------------------------------------------------------------
# special


@_digits
def coth(x):
    return mp.coth(x)


@_digits
def sech(x):
    return mp.sech(x)


# ---------------------------------------------------------------------------
# cycle: the squeezed bath, the quench and the four corners


@_digits
def occupation(beta, omega, r):
    n = 1 / mp.expm1(beta * omega)
    return n + (2 * n + 1) * mp.sinh(r) ** 2


@_digits
def delta_h(beta, omega, r):
    return 1 + (2 + mp.expm1(beta * omega)) * mp.sinh(r) ** 2


@_digits
def effective_temperature(beta, omega, r):
    return omega / mp.log1p(1 / occupation(beta, omega, r))


@_digits
def lambda_sudden(w1, w2):
    return (w1 * w1 + w2 * w2) / (2 * w1 * w2)


@_digits
def corner_energies(w1, w2, b1, b2, r, placement="hot"):
    """(h_a, h_b, h_c, h_d) of the sudden-quench cycle; ``placement`` is
    "hot" or "cold", the bath whose corners delta_h multiplies."""
    lam = lambda_sudden(w1, w2)
    c_cold, c_hot = coth(b1 * w1 / 2), coth(b2 * w2 / 2)
    if placement == "hot":
        f_cold, f_hot = 1, delta_h(b2, w2, r)
    else:
        f_cold, f_hot = delta_h(b1, w1, r), 1
    return (w1 / 2 * c_cold * f_cold, w2 / 2 * lam * c_cold * f_cold,
            w2 / 2 * c_hot * f_hot, w1 / 2 * lam * c_hot * f_hot)


@_digits
def heats(w1, w2, b1, b2, r, placement="hot"):
    """(q2, q4, w_ext)."""
    h_a, h_b, h_c, h_d = corner_energies(w1, w2, b1, b2, r, placement)
    return h_c - h_b, h_a - h_d, (h_c - h_b) + (h_a - h_d)


# ---------------------------------------------------------------------------
# verify


@_digits
def exact_efficiency(a, b, z, r):
    """1 / [2/(1 - z^2) + 1/(x - 1)], x = z dh(b, r) tanh(a/2) / tanh(b/2);
    -inf off the engine region, unless x > 1 and a > b z."""
    x = z * delta_h(b, 1, r) * mp.tanh(a / 2) / mp.tanh(b / 2)
    if not (x > 1 and a > b * z):
        return -mp.inf
    return 1 / (2 / (1 - z * z) + 1 / (x - 1))


# ---------------------------------------------------------------------------
# engine: the high-temperature bounds, g = (1 - eta_c) sech 2r; eta_up and
# eta_mw at r = 0 are eta_up_thermal and eta_rk.  1 - g is formed as
# sech(2r) (eta_c + 2 sinh^2 r) and 1 - sqrt(g) as (1 - g) / (1 + sqrt(g)):
# at 50 digits 1 - eta_c rounds to 1 for eta_c below 1e-50, and the
# subtraction would leave 0.


def _one_minus_g(eta_c, r):
    return mp.sech(2 * r) * (eta_c + 2 * mp.sinh(r) ** 2)


@_digits
def eta_up(eta_c, r):
    g = (1 - eta_c) * mp.sech(2 * r)
    return _one_minus_g(eta_c, r) * (2 + g - 2 * mp.sqrt(2 * g)) / (2 - g) ** 2


@_digits
def eta_mw(eta_c, r):
    s = mp.sqrt((1 - eta_c) * mp.sech(2 * r))
    return _one_minus_g(eta_c, r) / (1 + s) / (2 + s)


@_digits
def generalized_carnot(eta_c, r):
    return _one_minus_g(eta_c, r)


@_digits
def work_ht(z, tau, r):
    return (1 - z * z) * (z * z * mp.cosh(2 * r) - tau) / (2 * z * z)


@_digits
def z_star(tau, r):
    return (tau * mp.sech(2 * r)) ** (mp.mpf(1) / 4)


@_digits
def z2_of_eta(eta, eta_c, r):
    """(smaller root z^2 of z^4 - b z^2 + g (1 - eta), b / sqrt(disc)), with
    b = (1 - 2 eta) + g (1 + eta): the root and its condition number."""
    g = (1 - eta_c) * mp.sech(2 * r)
    b = (1 - 2 * eta) + g * (1 + eta)
    root = mp.sqrt(b * b - 4 * g * (1 - eta))
    return 2 * g * (1 - eta) / (b + root), b / root


@_digits
def carnot_crossing(bound, eta_c):
    """The squeezing r at which ``bound`` (eta_up or eta_mw above) reaches eta_c."""
    return mp.findroot(lambda r: bound(eta_c, r) - eta_c, (0, 6), solver="anderson")


# ---------------------------------------------------------------------------
# fridge: the COP bounds and windows, tau_c = tau cosh 2r


@_digits
def zeta_up_thermal(zeta_c):
    return 1 + 3 * zeta_c - 2 * mp.sqrt(2 * zeta_c * (1 + zeta_c))


@_digits
def zeta_up(tau, r):
    """zeta_up_thermal at the effective Carnot COP tau_c / (1 - tau_c)."""
    tc = tau * mp.cosh(2 * r)
    return zeta_up_thermal(tc / (1 - tc))


@_digits
def cop(z, tau, r):
    """Q_cold / W_in = y (2 tau_c - 1 - y) / ((1 - y)(tau_c - y)), y = z^2."""
    tc = tau * mp.cosh(2 * r)
    y = z * z
    return y * (2 * tc - 1 - y) / ((1 - y) * (tc - y))


@_digits
def r_window(tau):
    lo = mp.acosh(1 / (2 * tau)) / 2 if tau < 0.5 else mp.mpf(0)
    return lo, mp.acosh(1 / tau) / 2


@_digits
def cop_argmax(tc):
    """The z that maximises the COP y (2 tau_c - 1 - y) / ((1 - y)(tau_c - y)),
    y = z^2, over the cooling window 0 < y < 2 tau_c - 1, at tau_c = tc."""
    top = 2 * tc - 1

    def dlog_cop(y):
        return 1 / y - 1 / (top - y) + 1 / (1 - y) + 1 / (tc - y)

    eps = mp.mpf(10) ** -30
    return mp.sqrt(mp.findroot(dlog_cop, (eps * top, (1 - eps) * top), solver="anderson"))
