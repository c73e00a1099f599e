"""Claims 2-4 of the paper against the exact sudden-quench cycle.

The closed forms of `engine` and `fridge` are high-temperature limits: they
bound the exact cycle only as b = beta_hot omega2 -> 0.  These tests take
the exact cycle at b = 1e-2 and 1e-3 and check that limit by its rate.

Engine set-up (ROADMAP [claims]): lanes (eta_c, r), tau = 1 - eta_c,
a = beta_cold omega1 = b z / tau, dh = 1 + (2 + expm1 b) sinh^2 r, the hot
side's squeezing factor, and g = tau / dh.  The cycle is an engine for z
from sqrt(g) up, to first order in b; each search runs over
[sqrt(g) (1 + 1e-9), 0.9999999].

- Claim 2, the efficiency bound: the exact sup over z of
  `verify.exact_efficiency` is eta_up_thermal(1 - g) up to C b^2, C = 0.40
  (0.396 measured, worst lane (0.95, 0) at both b).  It exceeds the
  closed form eta_up(eta_c, r), whose g is tau sech 2r, on most lanes, by
  a term first order in b: eta_up is the b -> 0 bound.
- Claim 3, the efficiency at maximum work: `cycle.heats_work`'s own w_ext,
  maximised over z, gives an engine whose eta is eta_rk(1 - g), the
  squeezed Rezek-Kosloff form, up to C b^2, C = 0.38 (0.369 measured).

Fridge set-up (ROADMAP [claims]): tau = 0.4, b = 1e-3, the squeezing
on the cold bath, z on a 1e-3 grid.  Claim 4: no z refrigerates without
squeezing or below `fridge.r_window(0.4)` = (0.3466, 0.7834); inside it the
best COP lies just above zeta_up; past it every z refrigerates, and zeta_up
raises InfeasibleError.
"""

import numpy as np
import pytest

from ottobounds import cycle, engine, fridge, oracle, verify
from ottobounds.errors import InfeasibleError

BS = (1e-2, 1e-3)
Z_HI = 0.9999999


def _g(tau, b, r):
    """g = tau / dh, dh the hot side's squeezing factor at b."""
    return tau / (1.0 + (2.0 + np.expm1(b)) * np.sinh(r) ** 2)


def _z_lo(g):
    return np.sqrt(g) * (1.0 + 1e-9)


def _efficiency_sup(eta_c, r, b):
    """sup over z of the exact efficiency on each (eta_c, r) lane: one
    lockstep search over s in [0, 1], z = z_lo + s (Z_HI - z_lo)."""
    tau = 1.0 - eta_c
    lo = _z_lo(_g(tau, b, r))

    def eta(s):
        z = lo + s * (Z_HI - lo)
        return verify.exact_efficiency(b * z / tau, b, z, r)

    return oracle.maximize_scalar(eta, 0.0, 1.0).best_value


def _engine_lanes():
    eta_c, r = np.meshgrid(np.linspace(0.05, 0.95, 20), np.linspace(0.0, 3.0, 20),
                           indexing="ij")
    return eta_c.ravel(), r.ravel()


@pytest.fixture(scope="module")
def efficiency_sups():
    eta_c, r = _engine_lanes()
    return {b: _efficiency_sup(eta_c, r, b) for b in BS}


def test_the_exact_efficiency_sup_is_eta_up_of_the_squeezed_ratio_to_second_order(
        efficiency_sups):
    eta_c, r = _engine_lanes()
    worst = {}
    for b, sup in efficiency_sups.items():
        g = _g(1.0 - eta_c, b, r)
        bound = np.array([engine.eta_up_thermal(1.0 - gi) for gi in g])
        gap = np.abs(sup - bound)
        assert gap.max() <= 0.40 * b * b
        assert (eta_c[gap.argmax()], r[gap.argmax()]) == (0.95, 0.0)
        worst[b] = gap.max()
    assert worst[1e-2] / worst[1e-3] == pytest.approx(100.0, abs=2.0)


def test_eta_up_bounds_the_exact_cycle_only_as_b_goes_to_zero(efficiency_sups):
    # The exact sup lies above eta_up(eta_c, r) on most lanes, by at most a
    # term first order in b.
    eta_c, r = _engine_lanes()
    closed = np.array([engine.eta_up(e, ri) for e, ri in zip(eta_c, r)])
    for b, sup in efficiency_sups.items():
        excess = sup - closed
        assert np.count_nonzero(excess > 0.0) > 350
        assert excess.max() <= 0.05 * b


def _eta_at_max_work(eta_c, r, b):
    """The cycle at the z that maximises `heats_work`'s w_ext on one lane."""
    tau = 1.0 - eta_c

    def spec(z):
        return cycle.CycleSpec.of(z, 1.0, b / tau, b, r)

    rep = oracle.maximize_scalar(lambda z: cycle.heats_work(spec(z)).w_ext,
                                 float(_z_lo(_g(tau, b, r))), Z_HI)
    return cycle.heats_work(spec(rep.best_input))


def test_the_efficiency_at_maximum_work_is_eta_rk_of_the_squeezed_ratio():
    lanes = [(e, r) for e in (0.05, 0.35, 0.65, 0.95) for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    worst = {}
    for b in BS:
        gaps = []
        for eta_c, r in lanes:
            perf = _eta_at_max_work(eta_c, r, b)
            assert perf.mode_label is cycle.OperatingMode.ENGINE
            gaps.append(abs(perf.eta - engine.eta_rk(1.0 - float(_g(1.0 - eta_c, b, r)))))
        assert max(gaps) <= 0.38 * b * b
        assert lanes[int(np.argmax(gaps))] == (0.95, 0.0)
        worst[b] = max(gaps)
    assert worst[1e-2] / worst[1e-3] == pytest.approx(100.0, abs=2.0)


FRIDGE_TAU, FRIDGE_B = 0.4, 1e-3


def _refrigerating_cops(r):
    """The COP of each z = k 1e-3, k = 1..999, at which the cycle with
    squeezing r on the cold bath refrigerates."""
    cops = []
    for k in range(1, 1000):
        spec = cycle.CycleSpec.of(k * 1e-3, 1.0, FRIDGE_B / FRIDGE_TAU, FRIDGE_B, r, "cold")
        perf = cycle.heats_work(spec)
        if perf.mode_label is cycle.OperatingMode.REFRIGERATOR:
            cops.append(perf.cop)
    return cops


@pytest.mark.parametrize("r", [0.0, 0.3])
def test_below_the_window_no_z_refrigerates(r):
    assert r < fridge.r_window(FRIDGE_TAU)[0]
    assert _refrigerating_cops(r) == []


@pytest.mark.parametrize("r, count", [(0.5, 484), (0.7, 849)])
def test_inside_the_window_the_best_cop_lies_just_above_zeta_up(r, count):
    lo, hi = fridge.r_window(FRIDGE_TAU)
    assert lo < r < hi
    cops = _refrigerating_cops(r)
    assert len(cops) == count
    bound = fridge.zeta_up(FRIDGE_TAU, r)
    assert bound <= max(cops) <= bound * (1.0 + 1e-2)


def test_past_the_window_every_z_refrigerates_and_zeta_up_is_infeasible():
    assert fridge.r_window(FRIDGE_TAU)[1] < 0.9
    assert len(_refrigerating_cops(0.9)) == 999
    with pytest.raises(InfeasibleError):
        fridge.zeta_up(FRIDGE_TAU, 0.9)
