"""`cycle` against the oracle's independent route to the same efficiency.

`verify.exact_efficiency` computes the sudden-quench efficiency from the
scale-free variables a = beta_cold omega1, b = beta_hot omega2 and
z = omega1/omega2, through 1 / [2/(1 - z^2) + 1/(x - 1)]; `cycle.heats_work`
computes it from the four corner energies.  The two share nothing but the
inputs, so each checks the other: on the mode label, and on eta.

eta budget: w_ext = (h_c - h_b) + (h_a - h_d) cancels, and each corner
energy carries a few ulps of its own, so the absolute error of w_ext is a
small multiple of eps (h_a + h_b + h_c + h_d); q2 = h_c - h_b is no smaller
than w_ext in an engine, so eta = w_ext/q2 has a relative error of a small
multiple of eps (h_a + h_b + h_c + h_d) / w_ext.  The oracle's own error,
led by x - 1, was smaller on every measured point.  Over 120 000
log-uniform specs drawn from the strategy's ranges (75 255 engines with
b < 709) the largest relative difference was 1.27 times that quantity;
the test allows ``BUDGET`` = 8 times it.
"""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ottobounds import cycle, verify

EPS = sys.float_info.epsilon
BUDGET = 8.0


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _both_routes(w1, w2, b_cold, b_hot, r):
    perf = cycle.heats_work(cycle.CycleSpec.of(w1, w2, b_cold, b_hot, r))
    eta = float(verify.exact_efficiency(b_cold * w1, b_hot * w2, w1 / w2, r))
    return perf, eta


@settings(max_examples=400, deadline=None, derandomize=True)
@given(w1=_log_uniform(0.05, 5.0), ratio=_log_uniform(1.0001, 20.0),
       b_cold=_log_uniform(1e-3, 50.0),
       # beta_hot / beta_cold in [1e-3, 1), kept below 1 after exp
       cooling=st.floats(math.log(1e-3), -1e-12).map(math.exp),
       r=st.one_of(st.just(0.0), _log_uniform(1e-3, 5.0)))
def test_cycle_and_the_oracle_agree_on_the_label_and_on_eta(w1, ratio, b_cold, cooling, r):
    w2, b_hot = w1 * ratio, b_cold * cooling
    assume(b_hot * w2 < 709.0)   # beyond: the saturation test below
    perf, eta = _both_routes(w1, w2, b_cold, b_hot, r)
    assert (perf.mode_label is cycle.OperatingMode.ENGINE) == math.isfinite(eta)
    if math.isfinite(eta):
        corners = perf.h_a + perf.h_b + perf.h_c + perf.h_d
        assert abs(perf.eta - eta) <= BUDGET * EPS * corners / perf.w_ext * eta


@pytest.mark.xfail(strict=True, reason="b = beta_hot omega2 >= 709: heats_work saturates to an "
                   "'accelerator' with w_ext = NaN (ROADMAP [total-cycle]); exact_efficiency "
                   "takes the point through verify._log_space_eta")
def test_cycle_and_the_oracle_agree_once_expm1_b_overflows():
    perf, eta = _both_routes(1.0, 2.0, 800.0, 400.0, 0.5)
    assert perf.mode_label is cycle.OperatingMode.ENGINE
    assert math.isfinite(eta) and math.isclose(perf.eta, eta, rel_tol=1e-12)
