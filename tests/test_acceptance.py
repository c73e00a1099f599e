"""Acceptance suite: one test per top-level criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import _reference as ref
from ottobounds import engine, fridge, verify
from ottobounds.cycle import (
    AdiabaticityMode,
    BathSpec,
    CycleSpec,
    FrequencyPair,
    efficiency_sudden,
)
from ottobounds.oracle import find_root_scalar, maximize_scalar
from ottobounds.verify import work_argmax

ETA_GRID = np.linspace(0.05, 0.95, 20)
R_GRID = np.linspace(0.0, 5.0, 20)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_efficiency_ceiling():
    t0 = time.perf_counter()
    check = verify.ceiling_check()
    elapsed = time.perf_counter() - t0
    ok = (
        check.evaluations >= 1_000_000
        and 0.45 <= check.worst < 0.5
        and elapsed < 60.0
    )
    report(
        1, "efficiency-ceiling", ok,
        f"sup eta = {check.worst:.10f} over {check.evaluations} feasible "
        f"configurations in {elapsed:.1f} s (need >= 1e6 points, 0.45 <= sup < 0.5, < 60 s)",
    )


def test_criterion_02_efficiency_at_maximum_work():
    worst_z = 0.0
    worst_eta = 0.0
    for eta_c in ETA_GRID:
        for r in R_GRID:
            tau = float(1.0 - eta_c)
            z_num, _ = work_argmax(tau, float(r))
            worst_z = max(worst_z, abs(z_num - (tau / math.cosh(2.0 * r)) ** 0.25))
            worst_eta = max(
                worst_eta,
                abs(engine.efficiency_ht(z_num, tau, float(r)) - engine.eta_mw(float(eta_c), float(r))),
            )
    ok = worst_z < 1e-8 and worst_eta < 1e-10
    report(
        2, "efficiency-at-max-work", ok,
        f"max |z* - closed form| = {worst_z:.2e} (< 1e-8), "
        f"max |eta(z*) - eta_mw| = {worst_eta:.2e} (< 1e-10) on a 20x20 grid",
    )


def test_criterion_03_reduction_identities():
    worst = 0.0
    for eta_c in ETA_GRID:
        for r in R_GRID:
            eta_c_f, r_f = float(eta_c), float(r)
            gen = engine.generalized_carnot(eta_c_f, r_f)
            a = engine.eta_up(eta_c_f, r_f)
            worst = max(worst, abs(a - engine.eta_up_thermal(gen)) / a)
            a = engine.eta_mw(eta_c_f, r_f)
            worst = max(worst, abs(a - engine.eta_rk(gen)) / a)
    for r in np.linspace(0.0, 2.0, 5):
        for frac in (0.55, 0.65, 0.75, 0.85, 0.95):
            r_f = float(r)
            tau = frac / math.cosh(2.0 * r_f)
            a = fridge.zeta_up(tau, r_f)
            b = fridge.zeta_up_thermal(frac / (1.0 - frac))
            worst = max(worst, abs(a - b) / a)
    ok = worst < 1e-12
    report(3, "reduction-identities", ok, f"max relative deviation = {worst:.2e} (< 1e-12)")


def test_criterion_04_squeezed_bounds_vs_carnot():
    worst_cross = 0.0
    for bound, anchor in ((engine.eta_up, ref.eta_up), (engine.eta_mw, ref.eta_mw)):
        for eta_c in (0.2, 0.4):
            root = find_root_scalar(lambda r: bound(eta_c, r) - eta_c, (0.0, 6.0))
            worst_cross = max(worst_cross, float(abs(root - ref.carnot_crossing(anchor, eta_c))))
    tail = engine.eta_up(0.2, 6.0)
    big_ok = all(engine.eta_up(0.8, float(r)) < 0.8 for r in np.linspace(0.0, 20.0, 201))
    order_ok = all(
        engine.eta_mw(ec, float(r)) <= engine.eta_up(ec, float(r))
        for ec in (0.2, 0.4, 0.8)
        for r in np.linspace(0.0, 20.0, 201)
    )
    ok = worst_cross < 1e-6 and 0.495 < tail < 0.5 and big_ok and order_ok
    report(
        4, "squeezed-bounds-vs-carnot", ok,
        f"crossings located to {worst_cross:.2e} (< 1e-6), eta_up(0.2, 6) = {tail:.6f} "
        f"in (0.495, 0.5), eta_up(0.8, r) < 0.8 on [0, 20]: {big_ok}, "
        f"eta_mw <= eta_up everywhere sampled: {order_ok}",
    )


def test_criterion_05_thermal_bound_chain():
    xs = np.linspace(0.01, 0.99, 99)
    chain_ok = all(
        engine.eta_rk(float(x)) <= engine.eta_up_thermal(float(x)) <= 0.5 * float(x)
        for x in xs
    )
    spot_up = abs(engine.eta_up_thermal(0.5) - 0.111111)
    spot_rk = abs(engine.eta_rk(0.5) - 0.108194)
    ok = chain_ok and spot_up < 1e-6 and spot_rk < 1e-6
    report(
        5, "thermal-bound-chain", ok,
        f"eta_rk <= eta_up_th <= eta_c/2 at 99 points: {chain_ok}; "
        f"|eta_up_th(0.5) - 0.111111| = {spot_up:.2e}, "
        f"|eta_rk(0.5) - 0.108194| = {spot_rk:.2e} (both < 1e-6)",
    )


def test_criterion_06_fridge_bound_by_maximisation():
    pairs = []
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        for frac in (0.55, 0.62, 2.0 / 3.0, 0.8, 0.95):
            pairs.append((frac / math.cosh(2.0 * r), r))
    assert len(pairs) == 25
    worst = 0.0
    for tau, r in pairs:
        tc = tau * math.cosh(2.0 * r)
        hi = math.sqrt(2.0 * tc - 1.0) * (1.0 - 1e-12)
        best = maximize_scalar(
            lambda z, tau=tau, r=r: fridge.cop_ht(fridge.FridgeParams(z, tau, r)),
            lo=1e-6, hi=hi,
        ).best_value
        worst = max(worst, abs(best - fridge.zeta_up(tau, r)))
    spot = abs(
        maximize_scalar(
            lambda z: fridge.cop_ht(fridge.FridgeParams(z, 2.0 / 3.0, 0.0)),
            lo=1e-6, hi=math.sqrt(1.0 / 3.0) * (1.0 - 1e-12),
        ).best_value
        - (7.0 - 4.0 * math.sqrt(3.0))
    )
    ok = worst < 1e-6 and spot < 1e-6
    report(
        6, "fridge-bound", ok,
        f"max |max-COP - zeta_up| = {worst:.2e} over 25 feasible (tau, r) pairs "
        f"(< 1e-6); |max-COP(tau=2/3, r=0) - (7 - 4 sqrt 3)| = {spot:.2e} (< 1e-6)",
    )


def test_criterion_07_cooling_windows():
    worst = 0.0
    opens = True
    for tau in (0.25, 0.5, 0.75):
        lo, hi = fridge.r_window(tau)
        root = find_root_scalar(lambda r, tau=tau: fridge.cooling_heat_ht(1.0, tau, r), (0.0, 5.0))
        worst = max(worst, abs(root - hi))
        if lo > 0.0:
            root = find_root_scalar(lambda r, tau=tau: fridge.cooling_heat_ht(0.0, tau, r),
                                    (0.0, 5.0))
            worst = max(worst, abs(root - lo))
        else:
            opens = opens and fridge.cooling_heat_ht(0.0, tau, 1e-6) > 0.0
    half_window = abs(fridge.r_window(0.5)[1] - 0.5 * math.acosh(2.0))
    ok = worst < 1e-9 and half_window < 1e-9 and opens
    report(
        7, "cooling-windows", ok,
        f"Q4 sign changes within {worst:.2e} of the window endpoints (< 1e-9); "
        f"tau = 1/2 upper endpoint reproduces acosh(2)/2 to {half_window:.2e}; "
        f"zero-endpoint branches open at r = 0+: {opens}",
    )


def test_criterion_08_generalized_carnot_dominance():
    ok = True
    margin = math.inf
    for eta_c in ETA_GRID:
        for r in R_GRID:
            up = engine.eta_up(float(eta_c), float(r))
            gen = engine.generalized_carnot(float(eta_c), float(r))
            margin = min(margin, gen - up)
            ok = ok and up < gen
    report(
        8, "generalized-carnot-dominance", ok,
        f"eta_up < eta_c_gen at all 400 grid points; minimum margin = {margin:.3e}",
    )


def test_criterion_09_exact_vs_high_temperature():
    # Frequencies scaled so the larger of beta1*omega1, beta2*omega2 is 1e-4.
    worst = 0.0
    for z in np.linspace(0.55, 0.95, 10):
        for tau in np.linspace(0.05, 0.25, 10):
            z_f, tau_f = float(z), float(tau)
            b1 = 1e-4 / z_f
            spec = CycleSpec(
                cold=BathSpec(b1),
                hot=BathSpec(b1 * tau_f),
                freqs=FrequencyPair(z_f, 1.0),
                mode=AdiabaticityMode.sudden_switch(),
            )
            exact = efficiency_sudden(spec)
            approx = engine.efficiency_ht(z_f, tau_f, 0.0)
            worst = max(worst, abs(exact - approx) / exact)
    ok = worst < 1e-3
    report(
        9, "exact-vs-high-temperature", ok,
        f"max relative gap between the exact and high-temperature efficiencies "
        f"= {worst:.2e} on a 10x10 (z, tau) grid at beta*omega <= 1e-4 (< 1e-3)",
    )


def test_criterion_10_cli_contract():
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "ottobounds", *args],
            capture_output=True, text=True, timeout=600,
        )

    fig2_args = ("fig2", "--eta-c", "0.2", "--eta-c", "0.4", "--r-start", "0",
                 "--r-stop", "6", "--count", "61")
    fig3_args = ("fig3", "--start", "0.01", "--stop", "0.99", "--count", "99")
    fig2_a, fig2_b = run_cli(*fig2_args), run_cli(*fig2_args)
    fig3_a, fig3_b = run_cli(*fig3_args), run_cli(*fig3_args)
    identical = (
        fig2_a.stdout == fig2_b.stdout
        and fig3_a.stdout == fig3_b.stdout
        and fig2_a.returncode == fig3_a.returncode == 0
    )

    t0 = time.perf_counter()
    res = run_cli("verify", "--suite", "all")
    elapsed = time.perf_counter() - t0
    verify_ok = res.returncode == 0 and elapsed < 300.0
    summary = json.loads(res.stdout)
    ok = identical and verify_ok and summary["passed"]
    report(
        10, "cli-contract", ok,
        f"fig2/fig3 byte-identical across runs: {identical}; "
        f"`verify --suite all` exited {res.returncode} in {elapsed:.1f} s (< 300 s)",
    )
