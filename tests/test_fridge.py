import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import _reference as ref
from ottobounds.cycle import CycleSpec, OperatingMode, _classify_mode, heats_work
from ottobounds.errors import DomainError, InfeasibleError, ModeError
from ottobounds.fridge import (
    FridgeParams,
    _cooling_heat,
    _hot_heat,
    _tau_c,
    cooling_heat_ht,
    cop_ht,
    fridge_report,
    r_window,
    zeta_up,
    zeta_up_thermal,
)
from ottobounds.oracle import maximize_scalar
from ottobounds.special import sech

REL = 1e-12


def max_cop_over_z(tau, r):
    """Golden-section maximum of the COP over the cooling window in z.

    The COP is unimodal there: zero at both window edges, positive inside
    (checked by second differences in test_oracle).
    """
    tc = tau * math.cosh(2.0 * r)
    hi = math.sqrt(2.0 * tc - 1.0) * (1.0 - 1e-12)
    return maximize_scalar(lambda z: cop_ht(FridgeParams(z, tau, r)), lo=1e-6, hi=hi)


# ---------------------------------------------------------------------------
# Carnot COP and the thermal bound


def test_zeta_carnot_values():
    assert fridge_report(0.5).zeta_c == 1.0
    assert math.isclose(fridge_report(2.0 / 3.0).zeta_c, 2.0, rel_tol=1e-14)


def test_zeta_carnot_blows_up_toward_equal_temperatures():
    assert fridge_report(0.9999999999999999).zeta_c > 1e15
    with pytest.raises(DomainError):
        fridge_report(1.0)


def test_zeta_up_thermal_values():
    assert math.isclose(zeta_up_thermal(2.0), 7.0 - 4.0 * math.sqrt(3.0), rel_tol=1e-14)
    assert math.isclose(zeta_up_thermal(3.0), 10.0 - 4.0 * math.sqrt(6.0), rel_tol=1e-14)


def test_zeta_up_thermal_vanishes_at_the_feasibility_edge():
    # The bound is 0 in the limit zeta_c -> 1+; the edge itself is rejected
    # (windows are strict: the boundary carries zero cooling).
    assert zeta_up_thermal(1.0 + 1e-9) < 1e-4
    with pytest.raises(InfeasibleError):
        zeta_up_thermal(1.0)
    with pytest.raises(InfeasibleError):
        zeta_up_thermal(0.5)


def test_zeta_up_thermal_far_below_carnot():
    for zc in np.linspace(1.01, 50.0, 40):
        assert 0.0 < zeta_up_thermal(float(zc)) < float(zc)


def test_zeta_up_thermal_keeps_the_textbook_bits_where_it_is_finite():
    for zc in (2.0, 9e153):    # the golden pins seeded values and edges up to 1e150
        assert zeta_up_thermal(zc) == 1.0 + 3.0 * zc - 2.0 * math.sqrt(2.0 * zc * (1.0 + zc))


# ---------------------------------------------------------------------------
# Squeezed bound


def test_zeta_up_reduces_to_thermal_bound_at_r_zero():
    tau = 2.0 / 3.0
    assert math.isclose(zeta_up(tau, 0.0), zeta_up_thermal(tau / (1.0 - tau)), rel_tol=1e-12)


def test_zeta_up_depends_only_on_the_effective_ratio():
    # tau = 0.4 with squeezing tuned to tau_c = 2/3 (cosh 2r = 5/3, r = ln(3)/2)
    # must match tau = 2/3 bare.
    r = math.log(3.0) / 2.0
    assert math.isclose(zeta_up(0.4, r), 7.0 - 4.0 * math.sqrt(3.0), rel_tol=1e-10)


@given(r=st.floats(0.0, 3.0), frac=st.floats(0.51, 0.99))
def test_zeta_up_identity_with_thermal_bound(r, frac):
    tau = frac / math.cosh(2.0 * r)
    assume(0.0 < tau < 1.0)
    zc = frac / (1.0 - frac)
    assert math.isclose(zeta_up(tau, r), zeta_up_thermal(zc), rel_tol=1e-11)


def test_zeta_up_infeasible_sides_are_named():
    with pytest.raises(InfeasibleError, match="<= 1/2"):
        zeta_up(0.4, 0.0)
    with pytest.raises(InfeasibleError, match=">= 1"):
        zeta_up(0.8, 1.0)


# ---------------------------------------------------------------------------
# Windows


def test_tau_window_values():
    assert fridge_report(0.3, 0.0).tau_window == (0.5, 1.0)
    lo, hi = fridge_report(0.3, 0.5).tau_window
    assert math.isclose(lo, 0.5 * ref.sech(1.0), rel_tol=1e-14)
    assert math.isclose(hi, ref.sech(1.0), rel_tol=1e-14)


def test_tau_window_shrinks_to_zero():
    lo, hi = fridge_report(0.3, 40.0).tau_window
    assert 0.0 <= lo < hi < 1e-10


def test_r_window_branches():
    assert r_window(0.5)[0] == r_window(0.75)[0] == 0.0


@given(tau=st.floats(0.02, 0.98), r=st.floats(0.0, 3.0))
def test_window_duality(tau, r):
    # r in r_window(tau)  <=>  tau in tau_window(r)  <=>  tau cosh 2r in (1/2, 1),
    # checked away from the endpoints where float routes may disagree.
    # r = 0 itself is the (open) lower endpoint of the second window branch,
    # so it is excluded like any other endpoint.
    assume(r > 1e-9)
    tc = tau * math.cosh(2.0 * r)
    assume(abs(tc - 0.5) > 1e-9 and abs(tc - 1.0) > 1e-9)
    in_tc = 0.5 < tc < 1.0
    r_lo, r_hi = r_window(tau)
    t_lo, t_hi = fridge_report(tau, r).tau_window
    assert (r_lo < r < r_hi) == in_tc
    assert (t_lo < tau < t_hi) == in_tc


# ---------------------------------------------------------------------------
# COP


@given(
    r=st.floats(0.0, 2.0),
    frac=st.floats(0.55, 0.98),
    zfrac=st.floats(0.05, 0.95),
)
def test_cop_matches_closed_form(r, frac, zfrac):
    # Heats-based route against the re-derived rational closed form.
    tau = frac / math.cosh(2.0 * r)
    assume(0.0 < tau < 1.0)
    tc = frac
    z = zfrac * math.sqrt(2.0 * tc - 1.0)
    assume(z > 1e-8)
    got = cop_ht(FridgeParams(z, tau, r))
    z2 = z * z
    closed = z2 * (2.0 * tc - 1.0 - z2) / ((1.0 - z2) * (tc - z2))
    assert math.isclose(got, closed, rel_tol=1e-12)


def test_cop_vanishes_toward_the_cooling_boundary():
    tau, r = 0.75, 0.0
    z_edge = math.sqrt(2.0 * tau - 1.0)
    assert cop_ht(FridgeParams(z_edge * (1.0 - 1e-10), tau, r)) < 1e-7


def test_cop_errors_outside_the_window_name_the_mode():
    # tau < 1/2 with z^2 > tau: a plain thermal engine, not a fridge.
    with pytest.raises(ModeError) as err:
        cop_ht(FridgeParams(0.8, 0.4, 0.0))
    assert err.value.mode is OperatingMode.ENGINE
    # Small z, tau < 1/2: both heats rejected.
    with pytest.raises(ModeError) as err:
        cop_ht(FridgeParams(0.1, 0.4, 0.0))
    assert err.value.mode is OperatingMode.HEATER


def _heats(z, tau, r):
    """q2 and w_ext = q2 + q4 of the high-temperature cycle, from fridge's kernels."""
    tc = _tau_c(tau, sech(2.0 * r))
    q2 = _hot_heat(z * z, tc)
    return q2, q2 + _cooling_heat(z * z, tc)


def _cop_by_the_heats(p):
    """cop_ht as 2 z^2 q4 / ((1 - z^2)(tau_c - z^2)), q4 the validated cooling heat."""
    q4 = cooling_heat_ht(p.z, p.tau, p.r)
    if not math.isfinite(q4):
        raise DomainError("heats not representable")
    q2, w_ext = _heats(p.z, p.tau, p.r)
    if q4 <= 0.0:
        raise ModeError("no cooling", mode=_classify_mode(q2, q4, w_ext))
    z2, tc = p.z * p.z, _tau_c(p.tau, sech(2.0 * p.r))
    return 2.0 * z2 * q4 / ((1.0 - z2) * (tc - z2))


def _outcome(fn, p):
    try:
        return fn(p).hex()
    except (DomainError, ModeError) as exc:
        return type(exc).__name__, getattr(exc, "mode", None)


def test_cop_has_the_bits_of_the_heats():
    rng = random.Random(11)
    points = [(rng.random(), rng.random(), rng.choice((0.0, rng.uniform(0.0, 3.0))))
              for _ in range(20_000)]
    points += [
        (0.8, 0.4, 0.0), (0.1, 0.4, 0.0),            # engine, heater
        (math.sqrt(0.5), 0.75, 0.0),                  # the window edge
        (0.5, 0.6, 400.0), (0.5, 0.6, 354.0),         # tau_c overflows / just representable
        (1e-200, 0.75, 0.0), (1e-200, 0.3, 0.0),      # z^2 underflows to 0
    ]
    kinds = set()
    for z, tau, r in points:
        if not 0.0 < z < 1.0 or not 0.0 < tau < 1.0:
            continue
        p = FridgeParams(z, tau, r)
        got = _outcome(cop_ht, p)
        assert got == _outcome(_cop_by_the_heats, p), (z, tau, r)
        kinds.add(got if isinstance(got, tuple) else "value")
    assert kinds == {"value", ("DomainError", None)} | {
        ("ModeError", mode) for mode in
        (OperatingMode.ENGINE, OperatingMode.ACCELERATOR, OperatingMode.HEATER)}


def test_heats_diverge_at_an_underflowing_z():
    # z^2 = 0 in double precision: the heats take their z -> 0 limits.
    assert cooling_heat_ht(1e-200, 0.75, 0.0) == cooling_heat_ht(0.0, 0.75, 0.0) == 0.25
    assert _heats(1e-200, 0.75, 0.0) == (-math.inf, -math.inf)
    assert cop_ht(FridgeParams(1e-200, 0.75, 0.0)) == 0.0


def test_heats_overflow_at_a_subnormal_z_squared():
    # 2 z^2 is subnormal: the heats overflow to their z -> 0 limits, and the
    # COP takes its limit 2 z^2 q4 / tau_c, a subnormal, not 0.0.
    z2 = 1e-160 * 1e-160
    assert 0.0 < z2 < sys.float_info.min
    assert _heats(1e-160, 0.75, 0.0) == (-math.inf, -math.inf)
    assert cop_ht(FridgeParams(1e-160, 0.75, 0.0)) == 2.0 * z2 * 0.25 / 0.75 > 0.0


def test_cop_maximum_matches_the_bound_at_r_zero():
    rep = max_cop_over_z(2.0 / 3.0, 0.0)
    assert abs(rep.best_value - ref.zeta_up(2.0 / 3.0, 0.0)) < 1e-6
    assert abs(rep.best_input - ref.cop_argmax(2.0 / 3.0)) < 1e-5


def test_cop_maximum_matches_the_bound_with_squeezing():
    for tau, r in ((0.55, 0.3), (0.4, 0.6), (0.3, 0.7)):
        tc = tau * math.cosh(2.0 * r)
        if not 0.5 < tc < 1.0:
            continue
        rep = max_cop_over_z(tau, r)
        assert abs(rep.best_value - zeta_up(tau, r)) < 1e-6


# ---------------------------------------------------------------------------
# High-temperature heats vs. the exact cycle


def test_ht_heats_match_the_exact_cold_squeezed_cycle():
    z, tau, r = 0.5, 0.75, 0.2
    b2 = 1e-5
    perf = heats_work(CycleSpec.of(z, 1.0, b2 / tau, b2, r, "cold"))
    assert perf.mode_label is OperatingMode.REFRIGERATOR
    # The high-temperature heats are in units of 1/beta_hot.
    assert math.isclose(perf.q4 * b2, cooling_heat_ht(z, tau, r), rel_tol=1e-4)
    q2, w_ext = _heats(z, tau, r)
    assert math.isclose(perf.q2 * b2, q2, rel_tol=1e-4)
    assert math.isclose(perf.w_ext * b2, w_ext, rel_tol=1e-4)
    assert math.isclose(perf.cop, cop_ht(FridgeParams(z, tau, r)), rel_tol=1e-4)


def test_cooling_heat_accepts_the_closed_z_interval():
    assert cooling_heat_ht(0.0, 0.75, 0.0) == 0.25
    assert cooling_heat_ht(1.0, 0.75, 0.0) == -0.25
    for args in ((1.5, 0.75, 0.0), (0.5, 1.0, 0.1), (0.5, 0.5, -1)):
        with pytest.raises(DomainError):
            cooling_heat_ht(*args)


# ---------------------------------------------------------------------------
# Report


def test_fridge_report_feasible():
    rep = fridge_report(2.0 / 3.0, 0.0)
    assert rep.cooling_feasible and rep.reason is None
    assert math.isclose(rep.zeta_up, ref.zeta_up(2.0 / 3.0, 0.0), rel_tol=REL)
    assert math.isclose(rep.zeta_c, 2.0, rel_tol=1e-14)


def test_fridge_report_infeasible_is_an_answer():
    rep = fridge_report(0.4, 0.0)
    assert not rep.cooling_feasible
    assert rep.zeta_up is None
    assert "<= 1/2" in rep.reason
    # Windows are reported either way.
    assert math.isclose(rep.r_window[0], math.acosh(1.25) / 2.0, rel_tol=1e-13)
    assert rep.tau_window == (0.5, 1.0)


def test_past_the_finite_bound_the_cycle_still_refrigerates():
    # tau cosh 2r = 1.243 >= 1: no finite COP bound, yet by the sign pattern
    # behind a cycle's mode_label every z refrigerates, with a COP unbounded
    # as z -> 1.
    tau, r = 0.4, 0.9
    assert math.isclose(tau * math.cosh(2.0 * r), 1.243, abs_tol=5e-4)
    assert math.isclose(cop_ht(FridgeParams(0.5, tau, r)), 0.415, abs_tol=5e-4)
    assert math.isclose(cop_ht(FridgeParams(0.999, tau, r)), 994.0, abs_tol=0.5)
    for z in (0.5, 0.999):
        spec = CycleSpec.of(z, 1.0, 1e-3 / tau, 1e-3, r, "cold")
        assert heats_work(spec).mode_label is OperatingMode.REFRIGERATOR
    with pytest.raises(InfeasibleError, match="unbounded COP"):
        zeta_up(tau, r)
    assert fridge_report(tau, r).cooling_feasible is False


def test_fridge_report_boundary_tau_is_infeasible():
    # tau = 1/2, r = 0 sits exactly on the open window edge.
    rep = fridge_report(0.5, 0.0)
    assert not rep.cooling_feasible
    assert math.isclose(rep.r_window[1], ref.r_window(0.5)[1], rel_tol=REL)
