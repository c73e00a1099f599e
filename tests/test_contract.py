"""The total-function contract of the float-taking public functions.

``CALLS`` holds every number-taking function in the ``__all__`` of
``cycle``, ``engine``, ``fridge`` and ``special``, the record constructors,
``CycleSpec.of`` and ``verify.ceiling_check``.  A bad value in any argument
position raises ``DomainError``; a numpy scalar in a number position gives
the plain-float result.  On every tuple of the edge floats, a function
returns a value with no NaN in it (+-inf is allowed) or raises an
``OttoError``; record-taking functions are checked on records built from
the edge floats, and the ``oracle`` searches with objectives that behave
and objectives that return None, inf or NaN.  The regime table at the end
judges the float kernels against the 50-digit reference, and a line tracer
checks that its rows take every exit.  It is the one place where a
directly called kernel meets ``_reference``: the other test files compare
records, identities and literals.
"""

import ast
import inspect
import itertools
import math
import sys
import textwrap

import numpy as np
import pytest

import _reference as ref
from ottobounds import cycle, engine, fridge, oracle, special, verify
from ottobounds.cycle import (
    AdiabaticityMode, BathSpec, CycleSpec, FrequencyPair, OperatingMode, efficiency_sudden,
    heats_work, lambda_sudden,
)
from ottobounds._record import Record
from ottobounds.engine import EngineParams
from ottobounds.errors import DomainError, InfeasibleError, ModeError, NoSolutionError, OttoError
from ottobounds.fridge import FridgeParams
from test_hotpaths import T_EDGES

EPS = sys.float_info.epsilon
DBL_MAX = sys.float_info.max
EDGES = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0 - EPS / 2,
         1.0, 1.0 + EPS, 2.0, 10.0, 100.0, 354.0, 356.0, 400.0, 708.0, 709.0, 710.0, 1000.0,
         1e300, math.inf, -1.0)
WRONG = (None, "0.5", True, [0.5], 0.5j, object(), math.nan)
BAD = WRONG + (False, "", math.inf, -math.inf)
# Exact limits, not errors: a product such as 2r or beta*omega/2 may
# overflow to inf on valid inputs.
LIMITS = {(special.coth, math.inf): 1.0, (special.sech, math.inf): 0.0,
          (special.sech, -math.inf): 0.0}

RECORD_TAKING = {"efficiency_sudden", "heats_work", "lambda_sudden", "work_ht", "cop_ht"}
# Valid arguments, integral where a position takes that, so np.int64 goes there too.
FLOAT_CALLS = {
    special.coth: (0.5,), special.sech: (0.5,), cycle.effective_temperature: (1.0, 1.0, 0.5),
    engine.efficiency_ht: (0.8, 0.3, 0.5), engine.engine_report: (0.3, 0.5),
    engine.engine_rows: (0.3, 0.5), engine.eta_mw: (0.3, 0.5), engine.eta_rk: (0.3,),
    engine.eta_up: (0.2, 1.0), engine.eta_up_thermal: (0.3,), engine.generalized_carnot: (0.3, 0.5),
    engine.z_star: (0.3, 0.5), engine.z2_of_eta: (0.1, 0.5, 0.5),
    fridge.cooling_heat_ht: (1.0, 0.75, 0.0), fridge.fridge_report: (0.6, 0.1),
    fridge.r_window: (0.6,), fridge.zeta_up: (0.6, 0.1), fridge.zeta_up_thermal: (2.0,),
}
CALLS = {**FLOAT_CALLS, BathSpec: (2.0, 0.5), FrequencyPair: (1.0, 2.0),
         AdiabaticityMode.custom: (2.0,), EngineParams: (0.5, 0.5, 2.0),
         CycleSpec.of: (1.0, 2.0, 2.0, 0.2, 0.5, "hot", "custom", 1.5),
         FridgeParams: (0.5, 0.6, 0.1), verify.ceiling_check: (0, 1)}


def _ids(fns):
    return [pytest.param(fn, id=f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}")
            for fn in fns]


def _call(fn, args):
    """fn(*args); engine_rows takes each argument as a one-point sweep."""
    return fn(*([a] for a in args)) if fn is engine.engine_rows else fn(*args)


def test_the_call_table_names_every_number_taking_function():
    public = {getattr(module, name) for module in (cycle, engine, fridge, special)
              for name in module.__all__ if name not in RECORD_TAKING}
    assert {fn for fn in public if inspect.isfunction(fn)} == set(FLOAT_CALLS)


@pytest.mark.parametrize("fn", _ids(CALLS))
def test_each_bad_argument_raises_domain_error(fn):
    args = CALLS[fn]
    _call(fn, args)   # the valid call returns
    for i, bad in itertools.product(range(len(args)), BAD):
        call = args[:i] + (bad,) + args[i + 1:]
        limit = LIMITS.get((fn, bad)) if type(bad) is float else None
        if limit is not None:
            assert _call(fn, call) == limit
            continue
        with pytest.raises(DomainError):
            _call(fn, call)


@pytest.mark.parametrize("fn", _ids(fn for fn in CALLS if fn is not verify.ceiling_check))
def test_a_numpy_scalar_gives_the_plain_float_result(fn):
    args = CALLS[fn]
    for i, value in enumerate(args):
        if type(value) is str:
            continue
        for kind in (np.float64, np.float32, np.int64)[:3 if value == int(value) else 2]:
            x = kind(value)
            got = _call(fn, args[:i] + (x,) + args[i + 1:])
            want = _call(fn, args[:i] + (float(x),) + args[i + 1:])
            assert got == want and repr(got) == repr(want), (i, x)   # repr tells np.float64


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    elif isinstance(value, Record):
        yield from _leaves(tuple(vars(value).values()))
    else:
        yield value


def _has_nan(value):
    return any(type(v) is float and v != v for v in _leaves(value))


def _outcome(fn, args):
    """'error' for an OttoError, 'nan' for a value with a NaN in it, else 'ok'.

    Any other exception propagates and fails the test with its traceback.
    """
    try:
        value = fn(*args)
    except OttoError:
        return "error"
    return "nan" if _has_nan(value) else "ok"


@pytest.mark.parametrize("fn", _ids(FLOAT_CALLS))
def test_every_edge_tuple_gives_a_value_without_nan_or_an_otto_error(fn):
    if fn is engine.engine_rows:
        # The sweep takes iterables: one-point sweeps over the edge pairs,
        # and the bare floats, which are not iterable.
        calls = [([a], [b]) for a, b in itertools.product(EDGES, repeat=2)]
        calls += itertools.product(EDGES, repeat=2)
    else:
        calls = itertools.product(EDGES, repeat=len(FLOAT_CALLS[fn]))
    assert [args for args in calls if _outcome(fn, args) == "nan"] == []


def test_lambda_sudden_is_at_least_one_on_every_edge_frequency_pair():
    positive = [x for x in EDGES if 0.0 < x < math.inf]
    pairs = [(w1, w2) for w1, w2 in itertools.product(positive, repeat=2) if w1 < w2]
    assert len(pairs) == 276
    # lambda >= 1 is False for NaN; a raw exception fails the test.
    assert [p for p in pairs if not lambda_sudden(FrequencyPair(*p)) >= 1.0] == []


# The kernels behind three names removed from the API (README, "Removed
# names"), on every edge value their callers can pass them.

def test_delta_h_kernel_is_at_least_one_on_every_edge_product():
    positive = [x for x in EDGES if 0.0 < x < math.inf]
    rs = [x for x in EDGES if 0.0 <= x < math.inf]
    xs = sorted({beta * omega for beta, omega in itertools.product(positive, repeat=2)})
    # x = beta*omega may underflow to 0 or overflow to inf; >= 1 is False for NaN.
    assert [(x, r) for x in xs for r in rs if not cycle._delta_h(x, r) >= 1.0] == []


def test_classify_mode_kernel_labels_every_signed_edge_triple_by_its_sign_rule():
    signed = (*EDGES, *(-x for x in EDGES), math.nan)
    for q2, q4, w_ext in itertools.product(signed, repeat=3):
        mode = cycle._classify_mode(q2, q4, w_ext)
        assert (mode is OperatingMode.ENGINE) == (q2 > 0.0 > q4 and w_ext > 0.0)
        assert (mode is OperatingMode.ACCELERATOR) == (q2 > 0.0 > q4 and not w_ext > 0.0)
        assert (mode is OperatingMode.REFRIGERATOR) == (q2 < 0.0 < q4 and w_ext < 0.0)


def test_tau_window_is_an_ordered_pair_in_the_unit_interval():
    rs = [x for x in EDGES if 0.0 <= x < math.inf]
    windows = [fridge.fridge_report(0.5, r).tau_window for r in rs]
    assert [w for w in windows if not 0.0 <= w[0] <= w[1] <= 1.0] == []


# Cycle specs from the edge floats that make moderate beta*omega: every
# ordered pair of frequencies and of inverse temperatures, three squeezing
# strengths, both placements and all three driving modes.
SPEC_FLOATS = [x for x in EDGES if 1e-8 <= x <= 10.0]
MODES = (("adiabatic", None), ("sudden", None), ("custom", 2.0))


def _edge_specs():
    pairs = list(itertools.combinations(SPEC_FLOATS, 2))   # (smaller, larger)
    for (w1, w2), (b_hot, b_cold), r, placement, (mode, lam) in itertools.product(
            pairs, pairs, (0.0, 0.5, 5.0), ("hot", "cold"), MODES):
        yield CycleSpec.of(w1, w2, b_cold, b_hot, r, placement, mode, lam)


def _keeps_the_cycle_contract(spec):
    """heats_work has no NaN, closes the first law and its q2, q4 identities,
    and sets eta or cop by its mode; efficiency_sudden returns that eta or
    raises a ModeError carrying the mode."""
    perf = heats_work(spec)
    mode = perf.mode_label
    engine_mode = mode is OperatingMode.ENGINE
    ok = (not _has_nan(perf)
          and perf.q2 == perf.h_c - perf.h_b and perf.q4 == perf.h_a - perf.h_d
          and perf.w_ext == perf.q2 + perf.q4
          and (perf.eta is not None) == engine_mode
          and (perf.cop is not None) == (mode is OperatingMode.REFRIGERATOR))
    try:
        eta = efficiency_sudden(spec)
    except ModeError as exc:
        return ok and not engine_mode and exc.mode is mode
    return ok and engine_mode and eta == perf.eta


def test_heats_work_and_efficiency_sudden_keep_their_contract_on_edge_specs():
    specs = list(_edge_specs())
    assert len(specs) == 36_450
    assert [spec for spec in specs if not _keeps_the_cycle_contract(spec)] == []


def test_work_and_cop_on_every_edge_operating_point():
    unit = [x for x in EDGES if 0.0 < x < 1.0]
    rs = [x for x in EDGES if 0.0 <= x < math.inf]
    points = list(itertools.product(unit, unit, rs))
    for params, fn in ((engine.EngineParams, engine.work_ht), (fridge.FridgeParams, fridge.cop_ht)):
        assert [p for p in points if _outcome(lambda *a: fn(params(*a)), p) == "nan"] == []


# ---------------------------------------------------------------------------
# oracle: each primitive on every pair of search ends (or point) drawn from
# the edge floats in [-1, 10] and the wrong values, with each objective.

SEARCH_FLOATS = [x for x in EDGES if -1.0 <= x <= 10.0] + list(WRONG)
OBJECTIVES = (
    lambda x: x - 0.5,
    lambda x: -(x - 0.5) * (x - 0.5),
    lambda x: math.inf,
    lambda x: None,
    lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5,   # a bisection lands on the NaN
    "not callable",
)


def _oracle_calls():
    pairs = list(itertools.product(SEARCH_FLOATS, repeat=2))
    yield "axis_points", [(oracle.axis_points, (lo, hi, n)) for lo, hi in
                          itertools.product(EDGES + WRONG, repeat=2)
                          for n in (0, 1, 3, -1, 2.0, True, None)]
    yield "find_root_scalar", [(oracle.find_root_scalar, (g, pair)) for g in OBJECTIVES
                               for pair in pairs + [(0.0,), (0.0, 1.0, 2.0), None]]
    yield "maximize_scalar", [(oracle.maximize_scalar, (fn, lo, hi)) for fn in OBJECTIVES
                              for lo, hi in pairs]
    yield "refine_parabolic", [(oracle.refine_parabolic, (fn, x)) for fn in OBJECTIVES
                               for x in SEARCH_FLOATS]


@pytest.mark.parametrize("calls", [pytest.param(c, id=name) for name, c in _oracle_calls()])
def test_oracle_gives_a_value_without_nan_or_an_otto_error(calls):
    assert [args for fn, args in calls if _outcome(fn, args) == "nan"] == []


def test_exact_efficiency_turns_each_wrong_argument_into_an_otto_error():
    # [0.5] is a valid one-lane array here; a pair does not broadcast with a triple.
    wrong = [w for w in WRONG if w != [0.5]]
    calls = [[w if i == j else 0.5 for j in range(4)] for i in range(4) for w in wrong]
    # One lane of two outside a > 0, b > 0, 0 < z < 1, r >= 0.
    outside = ((0.0, -1.0, -math.inf), (0.0, -1.0, -math.inf),
               (0.0, 1.0, 1.5, -0.5, math.inf), (-0.5, -math.inf))
    calls += [[[0.5, v] if i == j else 0.5 for j in range(4)]
              for i, values in enumerate(outside) for v in values]
    calls.append([[2.0, 3.0], [1.0, 1.0, 1.0], 0.5, 0.5])
    assert [args for args in calls if _outcome(verify.exact_efficiency, args) != "error"] == []
    # +inf in a, b or r is a limit.
    limits = [[math.inf if i == j else 0.5 for j in range(4)] for i in (0, 1, 3)]
    assert [_outcome(verify.exact_efficiency, args) for args in limits] == ["ok"] * 3


# ---------------------------------------------------------------------------
# The regime table: each exit of the float kernels, judged against the
# 50-digit reference.  A row is (function, regime, arguments, budget).  A
# budget that is an error type is what the call must raise.  Otherwise the
# value must be inf exactly where the reference exceeds DBL_MAX, and within
# ``budget`` ulps of it elsewhere, times the condition number in CONDITION
# where the function has one; a tuple is judged item by item.

def _exponent(x, r):
    """x + 2 |ln sinh r|: past the expm1 cut delta_h is exp of this, so its
    rounding bounds the error, 4 ulps per unit."""
    return x + 2.0 * abs(math.log(math.sinh(r)))


def _terms(zc):
    """Terms over value of the textbook zeta_up_thermal, which cancels ([no-cancel])."""
    root = 2.0 * math.sqrt(2.0 * zc * (1.0 + zc))
    return (1.0 + 3.0 * zc + root) / (1.0 + 3.0 * zc - root)


FUNCTIONS = {   # name -> (the call, its 50-digit reference)
    "coth": (special.coth, ref.coth), "sech": (special.sech, ref.sech),
    "_delta_h": (cycle._delta_h, lambda x, r: ref.delta_h(x, 1, r)),
    "lambda_sudden": (lambda w1, w2: lambda_sudden(FrequencyPair(w1, w2)), ref.lambda_sudden),
    "effective_temperature": (cycle.effective_temperature, ref.effective_temperature),
    "z2_of_eta": (engine.z2_of_eta, lambda *a: ref.z2_of_eta(*a)[0]),
    "eta_rk": (engine.eta_rk, lambda eta_c: ref.eta_mw(eta_c, 0)),
    "eta_up_thermal": (engine.eta_up_thermal, lambda eta_c: ref.eta_up(eta_c, 0)),
    "r_window": (fridge.r_window, ref.r_window),
    "zeta_up_thermal": (fridge.zeta_up_thermal, ref.zeta_up_thermal),
    "generalized_carnot": (engine.generalized_carnot, ref.generalized_carnot),
    "eta_up": (engine.eta_up, ref.eta_up), "eta_mw": (engine.eta_mw, ref.eta_mw),
    "z_star": (engine.z_star, ref.z_star), "zeta_up": (fridge.zeta_up, ref.zeta_up),
    "cop_ht": (lambda z, tau, r: fridge.cop_ht(FridgeParams(z, tau, r)), ref.cop),
    "work_ht": (lambda z, tau, r: engine.work_ht(EngineParams(z, tau, r)), ref.work_ht),
}
# 1 + b / sqrt(disc): the smaller root's conditioning as the two roots
# merge at eta -> eta_up (about 450 at 0.999 eta_up).
CONDITION = {"z2_of_eta": lambda *a: 1 + ref.z2_of_eta(*a)[1]}
# Every return and raise statement of these must be taken by a row.
TABLED = (special.coth, special.sech, cycle._delta_h, cycle.lambda_sudden,
          cycle.effective_temperature, engine.z2_of_eta, engine._eta_up, engine.eta_rk,
          engine._eta_mw, engine._g_d, fridge.r_window, fridge._r_window,
          fridge.zeta_up_thermal)

REGIMES = [
    *(("coth", "x <= 0", (x,), DomainError) for x in (0.0, -1.0)),
    ("coth", "1/x overflows", (5e-324,), 1),
    *(("coth", "expm1 form", (x,), 1) for x in (1e-300, 1e-8, 0.2, 0.5, 1.0, 20.0, 400.0)),
    ("coth", "limit", (math.inf,), 0),
    ("sech", "NaN", (math.nan,), DomainError),
    *(("sech", "e^-|x| form", (x,), 1) for x in (0.0, 1e-300, 0.5, 1.0, -1.0, 20.0, 800.0)),
    ("sech", "limit", (-math.inf,), 0),

    ("_delta_h", "r = 0", (3.7, 0.0), 0),
    *(("_delta_h", "expm1 form", (x, r), 4) for x, r in (
        (1.0, 1.0), (1e-8, 0.3), (0.0, 0.5), (708.9, 1.0), (1e-300, 5e-324), (1e-300, 355.1))),
    ("_delta_h", "sinh^2 r overflows", (1e-300, 355.3), 4),   # from r = 355.24 on
    ("_delta_h", "sinh r overflows", (1.0, 800.0), 4),        # from r = 710.48 on
    # At beta*omega >= 709 the term is exp(x + 2 ln sinh r): 0 * inf gave
    # NaN once sinh^2 r underflowed, and inf stood for finite values up to
    # x = 709.78.
    *(("_delta_h", "past the expm1 cut", (x, r), 4.0 * _exponent(x, r)) for x, r in (
        (709.0, 1e-200), (710.0, 1e-200), (1000.0, 1e-200), (710.0, 1e-170), (1500.0, 1e-300),
        (800.0, 5e-324), (709.0, 1.0), (710.0, 0.5), (709.5, 1.0), (1000.0, 1.0),
        (1e300, 1e-300))),

    *(("lambda_sudden", regime, pair, 1) for regime, pair in (
        ("w1 < 1", (0.5, 0.7)),
        ("w1 >= 1", (1.0, 2.0)),
        ("w1 >= 1", (1.1041554792462924, 4.051732461696544)),   # the quotient: 2.59 ulps
        ("2 w1 w2 underflows", (5e-324, 1e-300)),   # this raised ZeroDivisionError
        ("2 w1 w2 underflows", (1e-200, 1e-190)),
        ("the squares overflow", (1e200, 1e201)),   # this was NaN
        ("2 w1 w2 subnormal", (1e-160, 1e-150)),    # this was 16 ulps off
        ("2 w1 overflows", (1e308, 1.5e308)),
        ("the squares overflow", (1.0, 1.7e308)),
        ("w2 / w1 overflows", (5e-324, 1e-15)),
        ("lambda overflows", (5e-324, 1.0)))),

    # Each raised ZeroDivisionError, or returned 0.0, NaN or inf for a finite value.
    *(("effective_temperature", regime, args, 4) for regime, args in (
        ("the inversion", (1.0, 1.0, 1.0)),
        ("the inversion", (1.0, 1.0, 0.5)),
        ("the inversion", (0.8, 1.3, 0.9)),
        ("r = 0, beta*omega underflows", (1e-200, 1e-200, 0.0)),
        ("beta*omega underflows", (1e-200, 1e-200, 0.5)),
        ("N = 0", (1000.0, 1.0, 1e-200)),   # 1/N overflows below DBL_MIN
        ("N subnormal", (710.0, 1.0, 1e-200)),
        ("sinh^2 r underflows, 2n + 1 overflows", (1e-300, 1e-8, 1e-300)),
        ("beta*omega subnormal", (5e-324, 0.9, 5e-324)),
        # N overflows where T is still cosh(2r)/beta to within x^2/12.
        ("x subnormal, T finite", (1e-300, 1e-20, 0.5)),
        ("x subnormal", (1e-160, 1e-160, 0.5)),
        ("N overflows, x normal", (1e-280, 1e-27, 2.0)),
        ("sech 2r subnormal", (1e6, 1e-20, 360.0)),
        ("sech 2r underflows", (1e300, 1e-320, 400.0)),
        ("cosh 2r edge", (1.0, 1e-300, 354.5)),
        ("beta sech 2r subnormal", (1e-292, 1e-30, 19.0)),
        ("T overflows", (1.0, 1e-300, 800.0)),
        # N overflows past r = 355 at beta*omega >= 1e-8: T = omega (N + 1/2).
        ("N overflows, x large", (1e300, 1e-290, 356.0)),
        ("N overflows, x = 1", (1e300, 1e-300, 356.0)),
        ("N overflows, x = 1e-8", (1e292, 1e-300, 400.0)),
        ("N overflows, omega subnormal", (1e305, 1e-310, 356.0)),
        ("N and T overflow", (1.0, 1.0, 356.0)),
        ("T overflows, x = 1e-3", (1.0, 1e-3, 360.0)),
        # e^r overflows from r = 709.78 on, T not yet: e^r from e^(r/2).
        ("e^r overflows, x small", (1.7e308, 1e-318, 709.5)),
        ("e^r overflows, N overflows", (1e308, 2e-316, 709.5)),
        *(("hot-path golden edge", args) for args in T_EDGES))),

    ("z2_of_eta", "eta at eta_up", (0.3, 0.5, 0.0), NoSolutionError),
    ("z2_of_eta", "rounded discriminant negative",
     (0.20427974833666124, 0.6714114753695926, 0.38418862936198384), NoSolutionError),
    ("z2_of_eta", "g below DBL_MIN", (0.3, 0.5, 400.0), DomainError),   # g = 0.0
    ("z2_of_eta", "g below DBL_MIN", (0.0, 0.5, 360.0), DomainError),   # g subnormal
    # The textbook 0.5 (b - sqrt(disc)) was 0.26 off at (eta_c, r, eta/eta_up)
    # = (0.6, 20, 0.9) and returned 0.0 at r = 300.
    *(("z2_of_eta", f"root at {frac} eta_up", (frac * engine.eta_up(eta_c, r), eta_c, r), 8)
      for eta_c in (0.02, 0.3, 0.5, 0.6, 0.9, 0.99)
      for r in (0.0, 0.01, 0.5, 2.0, 5.0, 20.0, 60.0, 150.0, 300.0, 350.0)
      for frac in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999)),

    *(("eta_rk", "(g, d) = (1 - eta_c, eta_c)", (eta_c,), 3)
      for eta_c in (1e-20, 1e-8, 0.2, 0.3, 0.5, 0.99, 1.0 - EPS / 2)),   # 1e-20 was 0.0
    *(("eta_up_thermal", "closed form", (eta_c,), 4) for eta_c in (0.2, 0.5)),
    # d = 1 - g has no cancelling term: each of these three was 0.0 at (1e-20, 0).
    *(("generalized_carnot", "d = 1 - g", args, 4) for args in ((0.2, 1.0), (1e-20, 0.0))),
    *(("eta_up", "(g, d) form", args, 4) for args in ((0.2, 1.0), (0.2, 6.0), (1e-20, 0.0))),
    *(("eta_mw", "(g, d) form", args, 4) for args in ((0.2, 1.0), (0.5, 0.0), (1e-20, 0.0))),
    # One ratio of the heats: the work's 1/(2 z^2) overflowed here and the COP was 0.0.
    ("cop_ht", "one ratio", (1e-10, 0.9, 344.0), 4),
    # (1 - sg)^2 - (sg/z - z)^2 cancels twice here: 13.6 ulps.
    ("work_ht", "grouped form", (0.6, 0.5, 0.5), 16),

    *(("r_window", "tau < 1/2" if tau < 0.5 else "tau >= 1/2", (tau,), 4)
      for tau in (0.5, 0.75, 0.25, 1e-308)),
    # Below 1/DBL_MAX, 1/tau overflowed and both endpoints were inf.
    *(("r_window", "1/tau overflows", (tau,), 4)
      for tau in (1e-320, 5e-324, math.nextafter(1.0 / DBL_MAX, 0.0), 1.0 / DBL_MAX)),

    ("zeta_up_thermal", "not finite", (math.inf,), DomainError),
    ("zeta_up_thermal", "zeta_c <= 1", (1.0,), InfeasibleError),
    *(("zeta_up_thermal", "textbook form", (zc,), _terms(zc))
      for zc in (2.0, 3.0, 10.0, 1e6, 9e153)),
    *(("zeta_up_thermal", "2 zc (1 + zc) overflows", (zc,), 1)   # the textbook form: -inf, NaN
      for zc in (1e154, 1e200, 1e300, 1.7e308, DBL_MAX)),
    # The closed form cancels as zeta_up_thermal's does, at zeta_c = tau_c / (1 - tau_c)
    # = 2 here: tau cosh 2r = 2/3.
    *(("zeta_up", "closed form", args, _terms(2.0))
      for args in ((2.0 / 3.0, 0.0), (0.4, math.log(3.0) / 2.0))),
]
# Known wrong values: each row flips when [no-cancel] mends its form.
NO_CANCEL = [
    ("zeta_up", "1 - tau_c cancels", (0.5, 1e-8), 4),
    ("z_star", "sech 2r underflows", (0.5, 373.0), 4),
    ("z_star", "tau sech 2r underflows", (5e-324, 0.9), 4),
    ("zeta_up_thermal", "textbook form", (1.0 + 1e-8,), 4),
]
_XFAIL = pytest.mark.xfail(strict=True, reason="[no-cancel]: 0.0 for a normal double")


@pytest.mark.parametrize("name, regime, args, budget", [
    *(pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[2]}") for row in REGIMES),
    *(pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[2]}", marks=_XFAIL) for row in NO_CANCEL)])
def test_each_regime_row_keeps_its_budget_against_the_reference(name, regime, args, budget):
    call, reference = FUNCTIONS[name]
    if isinstance(budget, type):
        with pytest.raises(budget):
            call(*args)
        return
    got, want = call(*args), reference(*args)
    got, want = (got, want) if type(got) is tuple else ((got,), (want,))
    scale = CONDITION[name](*args) if name in CONDITION else 1
    for g, w in zip(got, want, strict=True):
        if w > DBL_MAX:
            assert g == math.inf, (g, w)
        else:
            assert abs(g - w) <= budget * scale * math.ulp(float(w)), (g, w)


def _exits(fn):
    """Line numbers of the return and raise statements of ``fn``, from its source."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {first - 1 + node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Return, ast.Raise))}


def test_the_regime_table_takes_every_exit_of_the_tabled_functions():
    codes = {fn.__code__ for fn in TABLED}
    taken = set()   # (code, line) of each frame's last line: its return or raise

    def local(frame, event, arg):
        if event == "return":
            taken.add((frame.f_code, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        for name, _, args, _ in REGIMES + NO_CANCEL:
            try:
                FUNCTIONS[name][0](*args)
            except OttoError:
                pass
    finally:
        sys.settrace(previous)
    missed = {fn.__qualname__: _exits(fn) - {line for code, line in taken if code is fn.__code__}
              for fn in TABLED}
    assert {name: lines for name, lines in missed.items() if lines} == {}
