import dataclasses
import math

import numpy as np
import pytest

import _reference as ref
from ottobounds.engine import EngineParams, work_ht, z_star
from ottobounds.errors import BracketError, DomainError
from ottobounds.fridge import FridgeParams, cooling_heat_ht, cop_ht
from ottobounds.oracle import (
    INV_PHI,
    INV_PHI2,
    TOL,
    axis_points,
    find_root_scalar,
    maximize_scalar,
    refine_parabolic,
)

# ---------------------------------------------------------------------------
# Golden-section maximisation


def test_maximize_quadratic():
    rep = maximize_scalar(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
    assert abs(rep.best_input - 0.3) < 2e-10


def test_maximize_work_recovers_the_closed_form_ratio():
    tau, r = 0.5, 0.0
    def work(z):
        return work_ht(EngineParams(z, tau, r))
    rep = maximize_scalar(work, 1e-3, 0.9999)
    z_num = refine_parabolic(work, rep.best_input)
    assert abs(z_num - z_star(tau, r)) < 1e-8
    assert abs(z_num - 0.5**0.25) < 1e-8
    # Independent stationarity check by central difference.
    h = 1e-6
    deriv = (work(z_num + h) - work(z_num - h)) / (2.0 * h)
    assert abs(deriv) < 1e-6


def test_maximize_cop_recovers_the_thermal_bound():
    tau = 2.0 / 3.0
    hi = math.sqrt(2.0 * tau - 1.0) * (1.0 - 1e-12)
    rep = maximize_scalar(lambda z: cop_ht(FridgeParams(z, tau, 0.0)), 1e-6, hi)
    assert abs(rep.best_value - ref.zeta_up(tau, 0.0)) < 1e-6


def test_maximize_evaluation_count_follows_the_shrink_rate():
    # The bracket shrinks by 1/phi per step; the count is fixed up front.
    lo, hi = 0.0, 1.0
    rep = maximize_scalar(lambda x: -((x - 0.42) ** 2), lo, hi)
    n = math.ceil(math.log((hi - lo) / TOL) / math.log(1.0 / INV_PHI))
    assert rep.evaluations == n + 2  # two seeds, n-1 steps, one midpoint


def test_maximize_degenerate_interval():
    # A bracket already narrower than TOL: one evaluation at its midpoint.
    rep = maximize_scalar(lambda x: -x * x, 0.5, 0.5 + 0.5 * TOL)
    assert rep.evaluations == 1
    assert abs(rep.best_input - 0.5) < 1e-11


def test_maximize_is_deterministic():
    args = (lambda x: math.sin(3.0 * x), 0.0, 1.0)
    assert maximize_scalar(*args) == maximize_scalar(*args)


def test_maximize_propagates_non_finite_values():
    with pytest.raises(DomainError):
        maximize_scalar(lambda x: math.inf, 0.0, 1.0)


def test_objective_validation():
    # Strings and None used to raise raw TypeErrors, and an infinite end was accepted.
    for lo, hi in [(1.0, 0.0), ("a", 1.0), (0.0, None), (True, 2.0), (0.0, math.inf),
                   (-math.inf, 0.0), (math.nan, 1.0)]:
        with pytest.raises(DomainError):
            maximize_scalar(lambda x: x, lo, hi)
    seen = []
    rep = maximize_scalar(lambda x: seen.append(x) or x, np.float64(0.25), 1)
    # numpy ends enter as Python floats: the two seed points are floats.
    assert [type(v) for v in seen[:2]] == [float, float]
    assert seen[:2] == [0.25 + INV_PHI2 * 0.75, 0.25 + INV_PHI * 0.75]   # lo 0.25, hi 1.0
    assert type(rep.best_input) is float


def test_lockstep_lanes_equal_one_lane_searches_bitwise():
    p = np.array([0.1, 0.37, 0.5, 0.93])
    q = np.array([0.0, 0.3, -1.7, 2.0])
    fn = lambda x: q * x - (x - p) * (x - p)
    rep = maximize_scalar(fn, 0.0, 1.0)
    polished = refine_parabolic(fn, rep.best_input)
    for i in range(len(p)):
        one = lambda x, i=i: q[i] * x - (x - p[i]) * (x - p[i])
        single = maximize_scalar(one, 0.0, 1.0)
        assert type(single.best_input) is float and type(single.best_value) is float
        assert rep.best_input[i] == single.best_input
        assert rep.best_value[i] == single.best_value
        assert polished[i] == refine_parabolic(one, single.best_input)
        assert rep.evaluations == len(p) * single.evaluations


def test_lockstep_lanes_check_every_lane_for_finite_values():
    p = np.array([0.2, 0.6])
    with pytest.raises(DomainError):
        maximize_scalar(lambda x: np.where(x > p, np.inf, -x), 0.0, 1.0)


def test_refine_parabolic_hits_the_vertex():
    f = lambda x: -3.0 * (x - 0.37) ** 2
    assert abs(refine_parabolic(f, 0.369) - 0.37) < 1e-12
    # Non-concave samples leave the point untouched.
    assert refine_parabolic(lambda x: x, 0.3) == 0.3


# ---------------------------------------------------------------------------
# Unimodality backing the golden-section uses (second-difference signs)


def unimodal_by_differences(values):
    diffs = np.diff(values)
    signs = np.sign(diffs[diffs != 0.0])
    flips = np.count_nonzero(np.diff(signs) != 0)
    return flips <= 1


def test_work_is_unimodal_over_z():
    for tau, r in ((0.5, 0.0), (0.9, 2.0), (0.1, 1.0)):
        z = np.linspace(0.01, 0.999, 400)
        w = [work_ht(EngineParams(float(v), tau, r)) for v in z]
        assert unimodal_by_differences(w)


def test_cop_is_unimodal_over_the_cooling_window():
    for tau, r in ((2.0 / 3.0, 0.0), (0.55, 0.3)):
        tc = tau * math.cosh(2.0 * r)
        hi = math.sqrt(2.0 * tc - 1.0)
        z = np.linspace(1e-4, hi * (1.0 - 1e-9), 400)
        c = [cop_ht(FridgeParams(float(v), tau, r)) for v in z]
        assert unimodal_by_differences(c)


# ---------------------------------------------------------------------------
# Bisection


def test_find_root_linear():
    assert abs(find_root_scalar(lambda x: x - 2.0, (0.0, 5.0)) - 2.0) < TOL


def test_find_root_requires_a_sign_change():
    with pytest.raises(BracketError):
        find_root_scalar(lambda x: 1.0 + x * x, (0.0, 1.0))


@pytest.mark.parametrize("bracket", [
    (1.0, 0.0), (0.5, 0.5), ("a", 1.0), (0.0, None), (False, 1.0), (-math.inf, 1.0),
    (0.0, math.inf), (math.nan, 1.0),
])
def test_find_root_rejects_bad_brackets(bracket):
    # A string end used to raise a raw TypeError.
    with pytest.raises(DomainError):
        find_root_scalar(lambda x: x - 0.9, bracket)


def test_find_root_exact_endpoint():
    assert find_root_scalar(lambda x: x, (0.0, 1.0)) == 0.0


def test_cooling_sign_changes_land_on_the_window_endpoints():
    # At tau = 0.25 the cooling heat's sign change in r sweeps from
    # acosh(2)/2 (z -> 0) to acosh(4)/2 (z -> 1).
    lo, hi = ref.r_window(0.25)
    root = find_root_scalar(lambda r: cooling_heat_ht(0.0, 0.25, r), (0.0, 3.0))
    assert abs(root - lo) < 1e-9
    root = find_root_scalar(lambda r: cooling_heat_ht(1.0, 0.25, r), (0.0, 3.0))
    assert abs(root - hi) < 1e-9


def test_reports_are_frozen_dataclasses():
    rep = maximize_scalar(lambda x: -x * x, -1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.best_value = 0.0


@pytest.mark.parametrize("start, stop, count", [
    (0.05, 0.95, 19), (0.0, 5.0, 11), (0.55, 0.98, 10), (0.0, 6.0, 121), (0.01, 0.99, 99),
    (1e-4, 0.9999, 48), (0.3, 0.3, 1), (-2.5, 7.125, 2001), (0.0, 1.0, 0),
])
def test_axis_points_are_the_bits_of_linspace(start, stop, count):
    got = axis_points(start, stop, count)
    assert all(type(x) is float for x in got)
    assert got == np.linspace(start, stop, count).tolist()


@pytest.mark.parametrize("count", [-1, 2.0, True, None, "3"])
def test_axis_points_rejects_bad_counts(count):
    with pytest.raises(DomainError):
        axis_points(0.0, 1.0, count)
