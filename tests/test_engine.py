import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _reference as ref
from ottobounds.engine import (
    EngineParams,
    efficiency_ht,
    engine_report,
    engine_rows,
    eta_mw,
    eta_rk,
    eta_up,
    eta_up_thermal,
    generalized_carnot,
    work_ht,
    z2_of_eta,
    z_star,
)
from ottobounds.errors import DomainError, NoSolutionError, SingularityError
from ottobounds.oracle import find_root_scalar
from ottobounds.special import sech

REL = 1e-12


# ---------------------------------------------------------------------------
# Work


def test_work_vanishes_on_the_pwc_boundary():
    # z^2 = tau at r = 0: second factor of the work is exactly zero.
    assert work_ht(EngineParams(z=math.sqrt(0.37), tau=0.37, r=0.0)) == 0.0


@given(
    z=st.floats(0.05, 0.95),
    tau=st.floats(0.05, 0.95),
    r=st.floats(0.0, 3.0),
)
def test_work_grouped_form_matches_distributed_form(z, tau, r):
    got = work_ht(EngineParams(z, tau, r))
    c = math.cosh(2.0 * r)
    plain = (1.0 - z * z) * (z * z * c - tau) / (2.0 * z * z)
    assert math.isclose(got, plain, rel_tol=1e-9, abs_tol=1e-9 * c)


def test_work_near_degenerate_ratio_tends_to_zero():
    assert abs(work_ht(EngineParams(1.0 - 1e-9, 0.5, 0.0))) < 1e-8


def test_work_diverges_where_its_denominator_underflows():
    # Once sech(2r) underflows to 0 (r ~ 370+) the numerator is 1 - z^2 > 0
    # for every z, so the work is +inf; at a subnormal sech(2r) the
    # quotient overflows to the same limit.
    for z in (1e-18, 0.5, 1.0 - 1e-16):
        assert work_ht(EngineParams(z, 0.5, 400.0)) == math.inf
    assert 0.0 < sech(2.0 * 372.0) < sys.float_info.min
    assert work_ht(EngineParams(0.5, 0.5, 372.0)) == math.inf


def test_engine_params_validation():
    with pytest.raises(DomainError):
        EngineParams(z=1.0, tau=0.5)
    with pytest.raises(DomainError):
        EngineParams(z=0.5, tau=0.0)
    with pytest.raises(DomainError):
        EngineParams(z=0.5, tau=0.5, r=-0.2)


# ---------------------------------------------------------------------------
# Efficiency and positive work condition


def test_efficiency_sign_bookkeeping_below_pwc():
    # z^2 < tau and r = 0: not an engine.  Between the pole z^2 = tau/(2 - tau)
    # and tau the formula goes negative; below the pole both numerator and
    # denominator are negative, so it is positive and may exceed 1/2 and 1.
    assert math.isclose(efficiency_ht(0.6, 0.5, 0.0), -2.24, rel_tol=1e-12)
    assert math.isclose(efficiency_ht(0.5, 0.5, 0.0), 1.5, rel_tol=1e-12)
    assert math.isclose(efficiency_ht(0.1, 0.5, 0.0), 4851.0 / 4850.0, rel_tol=1e-12)


def test_efficiency_zero_on_the_pwc_boundary():
    # z = 0.5, tau = 0.25: z^2 == tau exactly in floats.
    assert efficiency_ht(0.5, 0.25, 0.0) == 0.0


def test_efficiency_pole_raises():
    # 2 z^2 == tau (1 + z^2) exactly for z = 0.5, tau = 0.4.
    with pytest.raises(SingularityError):
        efficiency_ht(0.5, 0.4, 0.0)


def _pwc(z, tau, r):
    """The positive-work condition z^2 cosh 2r > tau, as the sign of the work."""
    return work_ht(EngineParams(z, tau, r)) > 0.0


def test_pwc_spot_cases():
    assert not _pwc(0.5, 0.5, 0.0)          # 0.25 < 0.5
    assert _pwc(0.5, 0.5, 1.0)              # 0.25 cosh 2 = 0.94 > 0.5
    assert not _pwc(0.5, 0.25, 0.0)         # exact tie: strict inequality


@given(z=st.floats(0.05, 0.95), tau=st.floats(0.05, 0.95), r=st.floats(0.0, 4.0))
def test_efficiency_in_the_engine_window(z, tau, r):
    g = tau / math.cosh(2.0 * r)
    if abs(z * z - g) < 1e-12:  # avoid the boundary itself
        return
    try:
        eta = efficiency_ht(z, tau, r)
    except SingularityError:
        assert not _pwc(z, tau, r)  # pole lies outside the engine region
        return
    if _pwc(z, tau, r):
        assert 0.0 < eta < 0.5
    else:
        # Not an engine: either no work is extracted (eta <= 0) or the hot
        # heat itself has reversed sign (negative denominator).
        den = 2.0 * z * z - g * (1.0 + z * z)
        assert eta <= 0.0 or den < 0.0


# ---------------------------------------------------------------------------
# Inversion z^2(eta)


@given(eta_c=st.floats(0.05, 0.95), r=st.floats(0.0, 3.0), frac=st.floats(0.0, 0.98))
def test_z2_of_eta_round_trip(eta_c, r, frac):
    eta = frac * eta_up(eta_c, r)
    z2 = z2_of_eta(eta, eta_c, r)
    assert 0.0 < z2 < 1.0
    eff = efficiency_ht(math.sqrt(z2), 1.0 - eta_c, r)
    assert math.isclose(eff, eta, rel_tol=1e-10, abs_tol=1e-10)


def test_z2_of_eta_zero_efficiency_pins_the_pwc_boundary():
    eta_c, r = 0.4, 0.7
    g = (1.0 - eta_c) / math.cosh(2.0 * r)
    assert math.isclose(z2_of_eta(0.0, eta_c, r), g, rel_tol=1e-9)


def test_z2_of_eta_discarded_branch_is_the_degenerate_ratio():
    # The inversion is two-valued.  At eta -> 0 the kept (minus) branch
    # pins the positive-work boundary; the plus branch lands on z = 1,
    # which the frequency types reject.  For eta > 0 both branches
    # reproduce eta, so the choice is fixed by the eta -> 0 limit.
    eta_c, r = 0.4, 0.7
    g = (1.0 - eta_c) / math.cosh(2.0 * r)
    b0 = 1.0 + g
    z2_plus_at_zero = 0.5 * (b0 + math.sqrt(b0 * b0 - 4.0 * g))
    assert math.isclose(z2_plus_at_zero, 1.0, rel_tol=1e-12)

    eta = 0.5 * eta_up(eta_c, r)
    b = (1.0 - 2.0 * eta) + g * (1.0 + eta)
    z2_plus = 0.5 * (b + math.sqrt(b * b - 4.0 * g * (1.0 - eta)))
    assert z2_of_eta(eta, eta_c, r) < z2_plus < 1.0
    assert math.isclose(efficiency_ht(math.sqrt(z2_plus), 1.0 - eta_c, r), eta, rel_tol=1e-9)


def test_z2_of_eta_rejects_unreachable_efficiencies():
    bound = eta_up(0.3, 1.0)
    with pytest.raises(NoSolutionError):
        z2_of_eta(bound, 0.3, 1.0)
    with pytest.raises(NoSolutionError):
        z2_of_eta(bound + 1e-9, 0.3, 1.0)
    with pytest.raises(DomainError):
        z2_of_eta(-0.1, 0.3, 1.0)


@pytest.mark.parametrize("args, name", [
    (("x", 2.0, 0.1), "eta"), ((-0.1, 0.5, -1.0), "eta"), ((0.1, 2.0, -1.0), "eta_c"),
])
def test_z2_of_eta_names_the_first_bad_argument(args, name):
    # Arguments are checked in signature order (eta, eta_c, r); eta_c used
    # to be checked first.
    with pytest.raises(DomainError, match=f"^{name} must"):
        z2_of_eta(*args)


@pytest.mark.parametrize("eta, eta_c, r", [(0.3, 0.5, 400.0), (0.0, 0.5, 360.0)])
def test_z2_of_eta_below_the_double_range_is_a_domain_error(eta, eta_c, r):
    # g = (1 - eta_c) sech 2r is 0.0 at r = 400 and subnormal at r = 360;
    # the root used to come back as that 0.0 or as a subnormal.
    with pytest.raises(DomainError, match="below the double range"):
        z2_of_eta(eta, eta_c, r)


# ---------------------------------------------------------------------------
# Bounds


R_ZERO_POINTS = (1e-20, 1e-12, 0.1, 0.2, 0.5, 0.8, 0.95, 1.0 - 2.0**-53)


def test_eta_up_reduces_to_thermal_bound_at_r_zero():
    for eta_c in R_ZERO_POINTS:
        assert eta_up(eta_c, 0.0) == eta_up_thermal(eta_c), eta_c


def test_eta_mw_and_generalized_carnot_reduce_to_thermal_at_r_zero():
    for eta_c in R_ZERO_POINTS:
        assert eta_mw(eta_c, 0.0) == eta_rk(eta_c), eta_c
        assert generalized_carnot(eta_c, 0.0) == eta_c


@pytest.mark.parametrize("eta_c, r", [
    *((eta_c, r) for eta_c in (1e-12, 0.2, 0.5, 1.0 - 2.0**-53) for r in (372.0, 400.0, 1e6)),
    (0.5, 355.0),   # g = (1 - eta_c) sech 2r is subnormal
])
def test_bounds_never_rise_above_one_half_where_g_underflows(eta_c, r):
    # The property the gate on engine_report enforces: eta_mw <= eta_up <= 1/2,
    # exactly, also once g is subnormal or 0.0.
    g = (1.0 - eta_c) * sech(2.0 * r)
    assert g < sys.float_info.min
    rep = engine_report(eta_c, r)
    (row,) = engine_rows([eta_c], [r])
    assert eta_mw(eta_c, r) <= eta_up(eta_c, r) <= 0.5
    assert rep.eta_mw <= rep.eta_up <= 0.5
    assert row[3] <= row[2] <= 0.5
    if g == 0.0:
        assert rep.eta_up == rep.eta_mw == row[2] == row[3] == 0.5


def test_eta_up_approaches_one_half():
    assert abs(eta_up(0.2, 6.0) - 0.5) < 5e-3
    assert eta_up(0.2, 20.0) < 0.5


def test_eta_up_strictly_below_half_everywhere_sampled():
    for eta_c in np.linspace(0.02, 0.98, 25):
        for r in np.linspace(0.0, 20.0, 41):
            assert eta_up(float(eta_c), float(r)) < 0.5


def test_bounds_keep_their_order_in_floats():
    # eta_c <= eta_c_gen <= 1 and eta_mw <= eta_up <= 1/2 with no rounding
    # slack, where they are within a few ulps of each other: tiny eta_c or r
    # (eta_c_gen near eta_c), and r in [25, 45] (both bounds near 1/2).  The
    # forms 1 - g and (1 - s)/(2 + s) broke these at 394 of these 6000 points.
    rng = random.Random(3)
    for _ in range(6000):
        eta_c = rng.choice((rng.random(), 10.0 ** rng.uniform(-18.0, 0.0)))
        r = rng.choice((rng.uniform(25.0, 45.0), 10.0 ** rng.uniform(-12.0, 0.0)))
        rep = engine_report(eta_c, r)
        assert eta_c <= rep.eta_c_gen <= 1.0, (eta_c, r)
        assert rep.eta_mw <= rep.eta_up <= 0.5, (eta_c, r)


def test_eta_mw_limit_at_unit_carnot():
    assert abs(eta_mw(1.0 - 1e-12, 1.0) - 0.5) < 1e-5


def test_eta_mw_never_exceeds_eta_up():
    for eta_c in np.linspace(0.05, 0.95, 19):
        for r in np.linspace(0.0, 8.0, 17):
            assert eta_mw(float(eta_c), float(r)) <= eta_up(float(eta_c), float(r))


def test_generalized_carnot_values():
    assert generalized_carnot(0.2, 0.0) == 0.2
    assert generalized_carnot(0.01, 10.0) > 1.0 - 1e-8


def test_generalized_carnot_monotone_in_r():
    vals = [generalized_carnot(0.3, r) for r in np.linspace(0.0, 6.0, 25)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eta_up_never_exceeds_generalized_carnot():
    for eta_c in np.linspace(0.05, 0.95, 19):
        for r in np.linspace(0.0, 10.0, 21):
            assert eta_up(float(eta_c), float(r)) < generalized_carnot(float(eta_c), float(r))


def test_thermal_bound_chain():
    for x in np.linspace(0.01, 0.99, 99):
        x = float(x)
        assert eta_rk(x) <= eta_up_thermal(x) <= 0.5 * x


def test_thermal_bound_limits():
    assert eta_up_thermal(1e-9) < 1e-9
    assert abs(eta_up_thermal(1.0 - 1e-12) - 0.5) < 1e-5
    assert abs(eta_rk(1.0 - 1e-12) - 0.5) < 1e-6


def test_eta_rk_small_carnot_slope_is_one_sixth():
    # Finite difference at the origin: eta_rk = eta_c/6 + O(eta_c^2).
    fd = eta_rk(1e-6) / 1e-6
    assert math.isclose(fd, 1.0 / 6.0, rel_tol=1e-5)


def test_reduction_identities_on_grid():
    for eta_c in np.linspace(0.05, 0.95, 19):
        for r in np.linspace(0.0, 5.0, 11):
            eta_c, r = float(eta_c), float(r)
            gen = generalized_carnot(eta_c, r)
            assert math.isclose(eta_up(eta_c, r), eta_up_thermal(gen), rel_tol=1e-12)
            assert math.isclose(eta_mw(eta_c, r), eta_rk(gen), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Carnot crossings (bounds vs. the bare Carnot efficiency)


def test_bounds_cross_carnot_at_finite_squeezing():
    for eta_c, top in ((0.2, 5.0), (0.4, 6.0)):
        for bound, anchor in ((eta_up, ref.eta_up), (eta_mw, ref.eta_mw)):
            root = find_root_scalar(lambda r: bound(eta_c, r) - eta_c, (0.0, top))
            assert abs(root - ref.carnot_crossing(anchor, eta_c)) < 1e-8


def test_large_carnot_is_never_crossed():
    # eta_up < 1/2 < 0.8 for every squeezing strength.
    for r in np.linspace(0.0, 20.0, 81):
        assert eta_up(0.8, float(r)) < 0.8


# ---------------------------------------------------------------------------
# Optimal ratio, report, regime advisory


def test_z_star_closed_form():
    assert math.isclose(z_star(0.5, 0.0), 0.5**0.25, rel_tol=1e-15)
    assert math.isclose(
        z_star(0.5, 1.0), (0.5 / math.cosh(2.0)) ** 0.25, rel_tol=1e-14
    )


def test_efficiency_at_z_star_is_eta_mw():
    # Algebraic identity, checked through the independent expression trees.
    for eta_c in (0.1, 0.4, 0.7):
        for r in (0.0, 0.5, 2.0):
            tau = 1.0 - eta_c
            assert math.isclose(
                efficiency_ht(z_star(tau, r), tau, r), eta_mw(eta_c, r), rel_tol=1e-12
            )


def test_engine_report_bundles_consistent_fields():
    rep = engine_report(0.2, 1.0)
    assert math.isclose(rep.eta_up, ref.eta_up(0.2, 1.0), rel_tol=REL)
    assert math.isclose(rep.eta_mw, ref.eta_mw(0.2, 1.0), rel_tol=REL)
    assert math.isclose(rep.eta_c_gen, ref.generalized_carnot(0.2, 1.0), rel_tol=REL)
    assert math.isclose(rep.z_star, z_star(0.8, 1.0), rel_tol=1e-15)
    assert rep.pwc_satisfied  # the work optimum clears the PWC
    assert rep.eta_mw <= rep.eta_up < rep.eta_c_gen
    assert not _pwc(0.3, 0.8, 0.0)


def test_engine_report_takes_only_the_reservoir_parameters():
    assert list(inspect.signature(engine_report).parameters) == ["eta_c", "r"]


def test_engine_report_pwc_flag_fails_where_g_rounds_to_one():
    # g = 1 - eta_c rounds to 1, so z* = 1.0 and z*^2 > g is False.
    rep = engine_report(1e-17, 0.0)
    assert rep.z_star == 1.0 and rep.pwc_satisfied is False


def test_engine_report_has_the_bits_of_the_public_functions():
    # engine_report computes (g, d = 1 - g) once; every field must
    # keep the bits of the function that computes it alone.
    def bits(x):
        return x.hex() if isinstance(x, float) else x

    etas = [1e-9] + [0.05 * k for k in range(1, 20)] + [1.0 - 1e-9]
    rs = [0.25 * k for k in range(21)] + [355.0, 400.0, 800.0]
    for eta_c in etas:
        for r in rs:
            rep = engine_report(eta_c, r)
            got = {k: bits(v) for k, v in vars(rep).items()}
            assert got == {
                "eta_c": bits(eta_c),
                "eta_c_gen": bits(generalized_carnot(eta_c, r)),
                "eta_up": bits(eta_up(eta_c, r)),
                "eta_mw": bits(eta_mw(eta_c, r)),
                "z_star": bits(z_star(1.0 - eta_c, r)),
                "pwc_satisfied": True,
            }, (eta_c, r)


SWEEP_ETAS = [1e-12, 0.2, 0.5, 0.999999]
SWEEP_RS = [0.0, 1e-300, 0.3, 5.0, 371.0, 372.0, 400.0, 1e6]   # sech 2r underflows near 372


def test_engine_rows_have_the_bits_of_engine_report():
    rows = engine_rows(SWEEP_ETAS, SWEEP_RS)
    want = []
    for eta_c in SWEEP_ETAS:
        for r in SWEEP_RS:
            rep = engine_report(eta_c, r)
            want.append((r, eta_c, rep.eta_up, rep.eta_mw, rep.eta_c_gen))
    def bits(rows):
        return [tuple(map(float.hex, row)) for row in rows]

    assert bits(rows) == bits(want)


@pytest.mark.parametrize("eta_c, r", [(0.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (True, 1.0),
                                      (0.2, -1e-300), (0.2, math.inf), (0.2, math.nan), (0.2, "1")])
def test_engine_rows_raise_the_domain_error_of_engine_report(eta_c, r):
    with pytest.raises(DomainError) as want:
        engine_report(eta_c, r)
    with pytest.raises(DomainError) as got:
        engine_rows([0.5, eta_c], [0.0, r])
    assert str(got.value) == str(want.value)
