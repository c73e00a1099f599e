"""Bit-for-bit contract of the single-point functions on their hot paths.

Every case calls one public function on a seeded or edge-case input and
records the ``repr`` of its result, or the type and message of what it
raised (and a ModeError's ``mode``).  ``tests/golden/hotpaths.json``, which
``tests/_freeze_goldens.py`` generates, holds the recorded outcomes;
a change to any bit of a result, an error type or an error text fails here.
No entry may be a raw ZeroDivisionError, and no returned value may hold a NaN
but the known saturated w_ext.
"""

import json
import math
import random
import re
from pathlib import Path

import pytest

from ottobounds import cycle, engine, fridge
from ottobounds.errors import ModeError

GOLDEN = Path(__file__).parent / "golden" / "hotpaths.json"
SEED = 20240611
N_SEEDED = 40

R_EDGES = (0.0, 355.0, 356.0, 372.0, 400.0, 1e6)
BW_EDGES = (708.9, 709.0, 710.0, 1000.0)
BAD = ("0.5", None, True, math.nan, math.inf, -1.0, 0, 1j)

# effective_temperature at its regime edges: x = beta*omega at 1e-8; x below
# it where cosh 2r, then e^r, overflow; N at the smallest normal double
# (x = 708.3964 at r = 0); N = inf just above x = 1e-8.  The regime table of
# tests/test_contract.py checks each against 50-digit mpmath.
_X_SMALL = (math.nextafter(1e-8, 0.0), 1e-8, math.nextafter(1e-8, 1.0))
T_EDGES = ([(x, 1.0, r) for x in _X_SMALL for r in (0.5, 2.0)]
           + [(beta, omega, r) for beta, omega in ((1.0, 1e-9), (1e300, 1e-309))
              for r in (355.0, 356.0, 709.0, 710.0)]
           + [(x, 1.0, r) for x in (708.0, 708.39, 708.4, 709.0, 709.8)
              for r in (1e-160, 1e-155, 1e-150)]
           + [(1.0, _X_SMALL[2], 350.0), (1.0, _X_SMALL[2], 356.0), (1e10, 1.5e-18, 356.0)])


def _sech(x):
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


# name -> callable(*args); cycles and operating points are built from plain tuples.
CALLS = {
    "heats_work": lambda *a: cycle.heats_work(cycle.CycleSpec.of(*a)),
    "efficiency_sudden": lambda *a: cycle.efficiency_sudden(cycle.CycleSpec.of(*a)),
    "effective_temperature": cycle.effective_temperature,
    "fridge_report": fridge.fridge_report,
    "zeta_up": fridge.zeta_up,
    "cop_ht": lambda *a: fridge.cop_ht(fridge.FridgeParams(*a)),
    "work_ht": lambda *a: engine.work_ht(engine.EngineParams(*a)),
    "z2_of_eta": engine.z2_of_eta,
    "zeta_up_thermal": fridge.zeta_up_thermal,
}


def _cycle_cases(rng):
    out = []
    for _ in range(N_SEEDED):
        w1 = rng.uniform(0.5, 2.0)
        w2 = w1 * rng.uniform(1.1, 4.0)
        b_hot = rng.uniform(0.05, 2.0)
        b_cold = b_hot * rng.uniform(1.1, 5.0)
        r = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2.0)
        mode = rng.choice(("sudden", "adiabatic", "custom"))
        lam = rng.uniform(1.0, 3.0) if mode == "custom" else None
        out.append((w1, w2, b_cold, b_hot, r, rng.choice(("hot", "cold")), mode, lam))
    for placement in ("hot", "cold"):
        for r in R_EDGES:
            out.append((1.0, 2.0, 2.0, 0.2, r, placement, "sudden", None))
        for bw in BW_EDGES:
            # beta*omega at the squeezed contact: omega2 = 2 hot, omega1 = 1 cold.
            b_hot = bw / 2.0 if placement == "hot" else 0.1
            b_cold = bw if placement == "cold" else 2.0 * b_hot
            out.append((1.0, 2.0, b_cold, b_hot, 0.5, placement, "adiabatic", None))
    # Thermal quasi-static cycles that never run as an engine: the ModeError path.
    out.append((1.0, 3.0, 1.0, 0.5, 0.0, "hot", "adiabatic", None))
    out.append((1.0, 1.5, 0.4, 0.3, 0.0, "hot", "sudden", None))
    out.append((1.0, 2.0, 0.2, 2.0, 0.0, "hot", "sudden", None))       # cold not colder
    out.append((1.0, 2.0, 2.0, 0.2, 0.5, "bogus", "sudden", None))
    return out


def _occupation_cases(rng):
    out = [tuple(rng.uniform(0.05, 5.0) for _ in range(2)) + (rng.uniform(0.0, 3.0),)
           for _ in range(N_SEEDED)]
    out += [(bw, 1.0, r) for bw in BW_EDGES + (1.0, 1e-3) for r in R_EDGES + (1e-200,)]
    out += [(1e-200, 1e-200, 0.5), (1e-300, 2.0, 1e-300)]
    out += T_EDGES
    for i in range(3):
        for bad in BAD:
            args = [0.5, 2.0, 0.3]
            args[i] = bad
            out.append(tuple(args))
    out += [(-1.0, "x", -1.0), (1.0, -2.0, math.nan)]    # the first bad argument is named
    return out


def _fridge_cases(rng):
    out = []
    for _ in range(N_SEEDED):
        r = rng.uniform(0.0, 1.5)
        out.append((rng.uniform(0.02, 1.2) * _sech(2.0 * r), r))
    out += [(tau, r) for tau in (0.02, 0.3, 0.5, 0.75, 0.98) for r in R_EDGES]
    for r in (0.0, 0.3, 1.0, 5.0):
        u = _sech(2.0 * r)
        # tau*cosh(2r) exactly 1/2 and 1, and one ulp inside each.
        out += [(0.5 * u, r), (u, r), (math.nextafter(0.5 * u, 1.0), r),
                (math.nextafter(u, 0.0), r)]
    out += [(bad, 0.3) for bad in BAD] + [(0.5, bad) for bad in BAD]
    out += [(0.4, 0), (0.9, 1), (0.0, "r"), (1.0, -1.0)]
    return out


def _cop_cases(rng):
    out = []
    for _ in range(N_SEEDED):
        r = rng.uniform(0.0, 1.5)
        out.append((rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98) * _sech(2.0 * r), r))
    out += [(z, tau, r) for z in (0.1, 0.9) for tau in (0.3, 0.7) for r in R_EDGES]
    out += [(0.5, 0.5, 0.0), (math.sqrt(0.5), 0.75, 0.0), (0.5, 0.4, 0)]
    out += [(bad, 0.5, 0.1) for bad in BAD] + [(0.5, 0.5, bad) for bad in BAD]
    return out


def _work_cases(rng):
    out = [(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98), rng.uniform(0.0, 5.0))
           for _ in range(N_SEEDED)]
    out += [(z, tau, r) for z in (0.1, 0.5, 0.9) for tau in (0.2, 0.8) for r in R_EDGES]
    out += [(bad, 0.5, 0.1) for bad in BAD]
    return out


def _z2_cases(rng):
    # eta above eta_up (NoSolutionError) in a good share of the draws.
    out = [(rng.uniform(0.0, 0.5), rng.uniform(0.02, 0.98), rng.uniform(0.0, 3.0))
           for _ in range(N_SEEDED)]
    # From r = 355 on, g is subnormal: DomainError below eta_up.
    out += [(eta, 0.5, r) for eta in (0.0, 0.1, 0.3) for r in R_EDGES]
    # 1.9 ulps below eta_up: the rounded discriminant is negative.
    out.append((0.20427974833666124, 0.6714114753695926, 0.38418862936198384))
    out += [(0.5, 0.5, 0.0), (0.49, 0.1, 5.0), (0, 0.5, 0)]
    for i in range(3):
        for bad in BAD:
            args = [0.1, 0.5, 0.3]
            args[i] = bad
            out.append(tuple(args))
    return out


def _zeta_thermal_cases(rng):
    out = [(rng.uniform(0.0, 10.0),) for _ in range(N_SEEDED)]
    out += [(zc,) for zc in (0.5, 1.0, math.nextafter(1.0, 2.0), 2, 1e6, 1e150)]
    out += [(bad,) for bad in BAD]
    return out


def cases():
    """name -> list of argument tuples, the same on every run."""
    rng = random.Random(SEED)
    cyc = _cycle_cases(rng)
    occ = _occupation_cases(rng)
    fr = _fridge_cases(rng)
    return {
        "heats_work": cyc,
        "efficiency_sudden": cyc,
        "effective_temperature": occ,
        "fridge_report": fr + [(0.7,), (0.3,), ("0.7",)],
        "zeta_up": fr,
        "cop_ht": _cop_cases(rng),
        "work_ht": _work_cases(rng),
        "z2_of_eta": _z2_cases(rng),
        "zeta_up_thermal": _zeta_thermal_cases(rng),
    }


def outcome(name, args):
    """repr of the result, or 'Type: message' of what the call raised."""
    try:
        return repr(CALLS[name](*args))
    except Exception as exc:    # noqa: BLE001 - every outcome is part of the contract
        mode = f" [mode={exc.mode!r}]" if isinstance(exc, ModeError) else ""
        return f"{type(exc).__name__}: {exc}{mode}"


def outcomes(name, arg_lists):
    return {f"{name}{args!r}": outcome(name, args) for args in arg_lists}


def read_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_hot_path_outcomes_are_bit_identical(name):
    got = outcomes(name, cases()[name])
    want = read_golden()[name]
    assert got.keys() == want.keys()
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_golden_covers_every_function():
    assert set(read_golden()) == set(CALLS)


def test_golden_holds_no_raw_zero_division_and_no_nan():
    # An error entry is "<Type>: <message>" and may quote a NaN argument; a
    # returned value, a float or a record's repr, may hold no other nan than
    # the known saturation defect (ROADMAP [total-cycle]): opposite infinite
    # heats, whose sum w_ext is inf - inf.
    entries = {key: value for by_key in read_golden().values() for key, value in by_key.items()}
    errors = {key for key, value in entries.items() if re.match(r"\w+: ", value)}
    assert [key for key in errors if entries[key].startswith("ZeroDivisionError")] == []
    saturated = re.compile(r"q2=-?inf, q4=-?inf, w_ext=nan")
    assert [key for key, value in entries.items()
            if key not in errors and re.search(r"\bnan\b", saturated.sub("", value))] == []
