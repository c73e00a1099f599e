import dataclasses
import math

import numpy as np
import pytest

from ottobounds.engine import EngineParams, work_ht, z_star
from ottobounds.errors import BracketError, DomainError
from ottobounds.fridge import FridgeParams, cooling_heat_ht, cop_ht
from ottobounds.oracle import (
    INV_PHI,
    ScalarObjective,
    axis_points,
    find_root_scalar,
    maximize_scalar,
    refine_parabolic,
    sup_constrained_grid,
)

HALF_ACOSH_2 = 0.65847894846240835
HALF_ACOSH_4 = 1.0317185344477803
ZETA_UP_TH_2 = 0.071796769724490826


# ---------------------------------------------------------------------------
# Golden-section maximisation


def test_maximize_quadratic():
    rep = maximize_scalar(ScalarObjective(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-10))
    assert abs(rep.best_input - 0.3) < 2e-10
    assert rep.method == "golden-section"


def test_maximize_work_recovers_the_closed_form_ratio():
    tau, r = 0.5, 0.0
    obj = ScalarObjective(lambda z: work_ht(EngineParams(z, tau, r)), 1e-3, 0.9999, tol=1e-12)
    rep = maximize_scalar(obj)
    z_num = refine_parabolic(obj.fn, rep.best_input, h=1e-5)
    assert abs(z_num - z_star(tau, r)) < 1e-8
    assert abs(z_num - 0.5**0.25) < 1e-8
    # Independent stationarity check by central difference.
    h = 1e-6
    deriv = (obj.fn(z_num + h) - obj.fn(z_num - h)) / (2.0 * h)
    assert abs(deriv) < 1e-6


def test_maximize_cop_recovers_the_thermal_bound():
    tau = 2.0 / 3.0
    hi = math.sqrt(2.0 * tau - 1.0) * (1.0 - 1e-12)
    rep = maximize_scalar(ScalarObjective(lambda z: cop_ht(FridgeParams(z, tau, 0.0)), 1e-6, hi))
    assert abs(rep.best_value - ZETA_UP_TH_2) < 1e-6


def test_maximize_evaluation_count_follows_the_shrink_rate():
    # The bracket shrinks by 1/phi per step; the count is fixed up front.
    lo, hi, tol = 0.0, 1.0, 1e-8
    rep = maximize_scalar(ScalarObjective(lambda x: -((x - 0.42) ** 2), lo, hi, tol=tol))
    n = math.ceil(math.log((hi - lo) / tol) / math.log(1.0 / INV_PHI))
    assert rep.evaluations == n + 2  # two seeds, n-1 steps, one midpoint


def test_maximize_degenerate_interval():
    rep = maximize_scalar(ScalarObjective(lambda x: -x * x, 0.5, 0.5 + 1e-12, tol=1e-10))
    assert rep.evaluations == 1
    assert abs(rep.best_input - 0.5) < 1e-11


def test_maximize_is_deterministic():
    obj = ScalarObjective(lambda x: math.sin(3.0 * x), 0.0, 1.0, tol=1e-10)
    assert maximize_scalar(obj) == maximize_scalar(obj)


def test_maximize_propagates_non_finite_values():
    with pytest.raises(DomainError):
        maximize_scalar(ScalarObjective(lambda x: math.inf, 0.0, 1.0))


def test_objective_validation():
    # Strings and None used to raise raw TypeErrors, and an infinite end was accepted.
    for lo, hi, tol in [(1.0, 0.0, 1e-10), (0.0, 1.0, 0.0), ("a", 1.0, 1e-10),
                        (0.0, None, 1e-10), (True, 2.0, 1e-10), (0.0, math.inf, 1e-10),
                        (-math.inf, 0.0, 1e-10), (math.nan, 1.0, 1e-10), (0.0, 1.0, math.nan),
                        (0.0, 1.0, math.inf), (0.0, 1.0, "1e-3")]:
        with pytest.raises(DomainError):
            ScalarObjective(lambda x: x, lo, hi, tol=tol)
    obj = ScalarObjective(lambda x: x, np.float64(0.25), 1, tol=np.float32(0.5))
    assert (obj.lo, obj.hi, obj.tol) == (0.25, 1.0, 0.5)
    assert all(type(v) is float for v in (obj.lo, obj.hi, obj.tol))


def test_lockstep_lanes_equal_one_lane_searches_bitwise():
    p = np.array([0.1, 0.37, 0.5, 0.93])
    q = np.array([0.0, 0.3, -1.7, 2.0])
    fn = lambda x: q * x - (x - p) * (x - p)
    obj = ScalarObjective(fn, 0.0, 1.0, tol=1e-12)
    rep = maximize_scalar(obj)
    polished = refine_parabolic(fn, rep.best_input, h=1e-3)
    for i in range(len(p)):
        one = lambda x, i=i: q[i] * x - (x - p[i]) * (x - p[i])
        single = maximize_scalar(ScalarObjective(one, 0.0, 1.0, tol=1e-12))
        assert type(single.best_input) is float and type(single.best_value) is float
        assert rep.best_input[i] == single.best_input
        assert rep.best_value[i] == single.best_value
        assert polished[i] == refine_parabolic(one, single.best_input, h=1e-3)
        assert rep.evaluations == len(p) * single.evaluations


def test_lockstep_lanes_check_every_lane_for_finite_values():
    p = np.array([0.2, 0.6])
    with pytest.raises(DomainError):
        maximize_scalar(ScalarObjective(lambda x: np.where(x > p, np.inf, -x), 0.0, 1.0))


def test_refine_parabolic_hits_the_vertex():
    f = lambda x: 2.0 - 3.0 * (x - 0.37) ** 2
    assert abs(refine_parabolic(f, 0.3, h=1e-3) - 0.37) < 1e-10
    # Non-concave samples leave the point untouched.
    assert refine_parabolic(lambda x: x, 0.3, h=1e-3) == 0.3


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
# Constrained grid supremum


def test_grid_quadratic_two_axes():
    rep = sup_constrained_grid(
        lambda x, y: -((x - 0.3) ** 2) - (y - 0.7) ** 2,
        bounds=[(0.0, 1.0), (0.0, 1.0)],
        resolution=101,
        refine=True,
    )
    assert rep.method == "grid+refine"
    assert abs(rep.best_input[0] - 0.3) < 1e-3
    assert abs(rep.best_input[1] - 0.7) < 1e-3
    assert rep.best_value <= 0.0


def test_grid_respects_the_feasibility_predicate():
    # Unconstrained argmax sits at x = 0.9, but the predicate cuts it away.
    rep = sup_constrained_grid(
        lambda x: np.where(x < 0.5, -((x - 0.9) ** 2), -np.inf),
        bounds=[(0.0, 1.0)],
        resolution=1001,
        refine=False,
    )
    assert rep.best_input[0] < 0.5
    assert abs(rep.best_input[0] - 0.499) < 2e-3
    assert rep.evaluations < 1001


def test_grid_efficiency_supremum_respects_the_thermal_bound():
    # One-axis sweep of the high-temperature efficiency at tau = 0.8 under
    # the positive work condition; the supremum must sit at the closed-form
    # bound for eta_c = 0.2.
    tau = 0.8

    def eff(z):
        z2 = z * z
        return (1.0 - z2) * (z2 - tau) / (2.0 * z2 - tau * (1.0 + z2))

    rep = sup_constrained_grid(
        lambda z: np.where(z * z > tau, eff(z), -np.inf),
        bounds=[(1e-4, 0.9999)],
        resolution=1_000_000,
        refine=False,
    )
    bound = 0.03752470442573563  # thermal efficiency bound at eta_c = 0.2
    assert rep.best_value <= bound + 1e-6
    assert rep.best_value > bound - 1e-6
    assert 0 < rep.evaluations < 1_000_000  # the predicate filtered the grid


def test_grid_empty_feasible_set_is_an_answer():
    rep = sup_constrained_grid(
        lambda x: np.where(x > 2.0, x, -np.inf),
        bounds=[(0.0, 1.0)],
        resolution=100,
    )
    assert rep.best_input is None and rep.best_value is None
    assert rep.evaluations == 0


def test_grid_supremum_monotone_under_nesting():
    # linspace(0, 1, 11) is a subset of linspace(0, 1, 21) bitwise.
    f = lambda x: np.sin(5.0 * x)
    lo = sup_constrained_grid(f, [(0.0, 1.0)], resolution=11, refine=False)
    hi = sup_constrained_grid(f, [(0.0, 1.0)], resolution=21, refine=False)
    assert hi.best_value >= lo.best_value


def test_grid_deterministic_and_tie_broken_lexicographically():
    f = lambda x, y: np.zeros_like(x)  # all ties
    rep1 = sup_constrained_grid(f, [(0.0, 1.0), (0.0, 1.0)], resolution=7, refine=False)
    rep2 = sup_constrained_grid(f, [(0.0, 1.0), (0.0, 1.0)], resolution=7, refine=False)
    assert rep1 == rep2
    assert rep1.best_input == (0.0, 0.0)  # lowest lexicographic input wins


def test_grid_rejects_nan_from_the_objective():
    with pytest.raises(DomainError):
        sup_constrained_grid(lambda x, y: np.where(x > 0.5, np.nan, x + y),
                             [(0.0, 1.0), (0.0, 1.0)], resolution=5, refine=False)
    with pytest.raises(DomainError):
        sup_constrained_grid(lambda x: np.where(x > 0.5, np.nan, -np.inf),
                             [(0.0, 1.0)], resolution=5, refine=False)


def test_grid_objective_may_ignore_axes():
    # A lower-rank result is broadcast over the ignored axes; ties along
    # them go to the lowest lexicographic input.
    rep = sup_constrained_grid(lambda x, y, z: -((x - 0.5) ** 2),
                               [(0.0, 1.0)] * 3, resolution=5, refine=False)
    assert rep.best_input == (0.5, 0.0, 0.0)
    assert rep.evaluations == 125
    rep = sup_constrained_grid(lambda x, y: 1.0, [(0.0, 1.0)] * 2, resolution=4, refine=False)
    assert rep.best_input == (0.0, 0.0) and rep.best_value == 1.0
    assert rep.evaluations == 16


def test_grid_does_not_count_minus_inf_points():
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9), indexing="ij")
    rep = sup_constrained_grid(lambda x, y: np.where(x + y > 1.0, x - y, -np.inf),
                               [(0.0, 1.0), (0.0, 1.0)], resolution=9, refine=False)
    assert rep.evaluations == np.count_nonzero(x + y > 1.0)
    assert rep.best_input == (1.0, 0.125)


def test_grid_objective_may_return_one_buffer_for_every_call():
    # The oracle reads each result in full before the next call and keeps
    # no reference to it, so a reused scratch buffer gives the same report.
    def fresh(x, y, z):
        return np.where(x + y > z, np.sin(3.0 * x) * np.cos(2.0 * y) - z * z, -np.inf)

    buffers = {}

    def reused(x, y, z):
        shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
        buf = buffers.setdefault(shape, np.empty(shape))
        buf[...] = fresh(x, y, z)
        return buf

    bounds = [(0.0, 1.0), (-0.5, 0.5), (0.0, 0.8)]
    want = sup_constrained_grid(fresh, bounds, resolution=11, refine=True)
    got = sup_constrained_grid(reused, bounds, resolution=11, refine=True)
    assert got == want
    assert sorted(buffers) == [(1, 11, 11), (1, 21, 21)]


def test_grid_receives_open_coordinates():
    shapes = []

    def f(x, y, z):
        shapes.append((x.shape, y.shape, z.shape))
        return x + y + z

    sup_constrained_grid(f, [(0.0, 1.0)] * 3, resolution=3, refine=False)
    assert shapes == [((1, 1, 1), (1, 3, 1), (1, 1, 3))] * 3


def test_grid_validation():
    with pytest.raises(DomainError):
        sup_constrained_grid(lambda *a: a[0], bounds=[(0.0, 1.0)] * 6)
    with pytest.raises(DomainError):
        sup_constrained_grid(lambda x: x, bounds=[(0.0, 1.0)], resolution=1)
    with pytest.raises(DomainError):
        sup_constrained_grid(lambda x: x, bounds=[(1.0, 0.0)])
    # An infinite end used to warn and then report NaN at (nan,), a string end
    # and a float resolution raised raw TypeErrors, and [2.7] was truncated to 2.
    # A resolution is one count for every axis, never a sequence.
    for bounds in ([(0.0, math.inf)], [("a", 1.0)], [(math.nan, 1.0)], [(0.0, None)]):
        with pytest.raises(DomainError):
            sup_constrained_grid(lambda x: x, bounds=bounds)
    for resolution in (2.5, [2.7], [True], "5", [5], [5, 5], 1.0e6):
        with pytest.raises(DomainError):
            sup_constrained_grid(lambda x: x, bounds=[(0.0, 1.0)], resolution=resolution)


# ---------------------------------------------------------------------------
# Bisection


def test_find_root_linear():
    assert abs(find_root_scalar(lambda x: x - 2.0, (0.0, 5.0), tol=1e-12) - 2.0) < 1e-12


def test_find_root_requires_a_sign_change():
    with pytest.raises(BracketError):
        find_root_scalar(lambda x: 1.0 + x * x, (0.0, 1.0))


@pytest.mark.parametrize("bracket, tol", [
    ((1.0, 0.0), 1e-12), ((0.5, 0.5), 1e-12), (("a", 1.0), 1e-12), ((0.0, None), 1e-12),
    ((False, 1.0), 1e-12), ((-math.inf, 1.0), 1e-12), ((0.0, math.inf), 1e-12),
    ((math.nan, 1.0), 1e-12), ((0.0, 1.0), math.nan), ((0.0, 1.0), 0.0),
    ((0.0, 1.0), -1e-12), ((0.0, 1.0), math.inf), ((0.0, 1.0), "1e-12"),
])
def test_find_root_rejects_bad_brackets_and_tolerances(bracket, tol):
    # tol = nan used to return the midpoint 0.5 without one bisection step,
    # and a string end raised a raw TypeError.
    with pytest.raises(DomainError):
        find_root_scalar(lambda x: x - 0.9, bracket, tol=tol)


def test_find_root_exact_endpoint():
    assert find_root_scalar(lambda x: x, (0.0, 1.0)) == 0.0


def test_cooling_sign_changes_land_on_the_window_endpoints():
    # At tau = 0.25 the cooling heat's sign change in r sweeps from
    # acosh(2)/2 (z -> 0) to acosh(4)/2 (z -> 1).
    root = find_root_scalar(lambda r: cooling_heat_ht(0.0, 0.25, r), (0.0, 3.0), tol=1e-12)
    assert abs(root - HALF_ACOSH_2) < 1e-9
    root = find_root_scalar(lambda r: cooling_heat_ht(1.0, 0.25, r), (0.0, 3.0), tol=1e-12)
    assert abs(root - HALF_ACOSH_4) < 1e-9


def test_reports_are_frozen_dataclasses():
    rep = maximize_scalar(ScalarObjective(lambda x: -x * x, -1.0, 1.0))
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
