"""The total-function contract of the float-taking public functions.

Every function in the ``__all__`` of ``cycle``, ``engine``, ``fridge`` and
``special`` that takes plain numbers is called on every tuple of the edge
floats below, and once per argument with a wrong type or NaN in it.  Each
call must return a value with no NaN anywhere in it (a float, a tuple or a
record's fields; +-inf is allowed), or raise an ``OttoError``.  Functions
that take a record argument are left out there: a float there raises
``AttributeError``, as the README states.  They are checked on records
built from the edge floats instead: ``lambda_sudden`` on frequency pairs,
``heats_work`` and ``efficiency_sudden`` on cycle specs, ``work_ht`` and
``cop_ht`` on operating points.  The search primitives of ``oracle`` take
callables: they are called on the edge floats and the wrong values with
objectives that behave and objectives that return None, inf or NaN, and
must keep the same contract.
"""

import inspect
import itertools
import math
import sys

import pytest

from ottobounds import cycle, engine, fridge, oracle, special, verify
from ottobounds.cycle import (
    AdiabaticityMode, BathSpec, CycleSpec, FrequencyPair, OperatingMode, SqueezePlacement,
    efficiency_sudden, heats_work, lambda_sudden,
)
from ottobounds._record import Record
from ottobounds.errors import ModeError, OttoError

EPS = sys.float_info.epsilon
EDGES = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0 - EPS / 2,
         1.0, 1.0 + EPS, 2.0, 10.0, 100.0, 354.0, 356.0, 400.0, 708.0, 709.0, 710.0, 1000.0,
         1e300, math.inf, -1.0)
WRONG = (None, "0.5", True, [0.5], 0.5j, object(), math.nan)
BASE = 0.5   # a valid value of every argument; the wrong one goes in beside it

RECORD_TAKING = {"efficiency_sudden", "heats_work", "lambda_sudden", "work_ht", "cop_ht"}


def _float_functions():
    for module in (cycle, engine, fridge, special):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and name not in RECORD_TAKING:
                yield pytest.param(fn, id=f"{module.__name__.rsplit('.', 1)[1]}.{name}")


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


@pytest.mark.parametrize("fn", _float_functions())
def test_every_edge_tuple_gives_a_value_without_nan_or_an_otto_error(fn):
    params = list(inspect.signature(fn).parameters.values())
    if fn is engine.engine_rows:
        # The sweep takes iterables: one-point sweeps over the edge pairs,
        # and the bare floats, which are not iterable.
        calls = [([a], [b]) for a, b in itertools.product(EDGES, repeat=2)]
        calls += itertools.product(EDGES, repeat=2)
        wrong = [[[w], [BASE]] for w in WRONG] + [[[BASE], [w]] for w in WRONG]
    else:
        calls = list(itertools.product(EDGES, repeat=len(params)))
        wrong = [[w if i == j else BASE for j in range(len(params))]
                 for i in range(len(params)) for w in WRONG]
    assert [args for args in calls if _outcome(fn, args) == "nan"] == []
    for args in wrong:
        assert _outcome(fn, args) == "error", args


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


def test_tau_window_kernel_is_an_ordered_pair_in_the_unit_interval():
    rs = [x for x in EDGES if 0.0 <= x < math.inf]
    windows = [fridge._tau_window(special.sech(2.0 * r)) for r in rs]
    assert [w for w in windows if not 0.0 <= w[0] <= w[1] <= 1.0] == []


# Cycle specs from the edge floats that make moderate beta*omega: every
# ordered pair of frequencies and of inverse temperatures, three squeezing
# strengths, both placements and all three driving modes.
SPEC_FLOATS = [x for x in EDGES if 1e-8 <= x <= 10.0]
MODES = (AdiabaticityMode.adiabatic(), AdiabaticityMode.sudden_switch(),
         AdiabaticityMode.custom(2.0))


def _edge_specs():
    pairs = list(itertools.combinations(SPEC_FLOATS, 2))   # (smaller, larger)
    for (w1, w2), (b_hot, b_cold), r, placement, mode in itertools.product(
            pairs, pairs, (0.0, 0.5, 5.0), SqueezePlacement, MODES):
        hot = placement is SqueezePlacement.HOT_BATH
        yield CycleSpec(cold=BathSpec(b_cold, 0.0 if hot else r),
                        hot=BathSpec(b_hot, r if hot else 0.0),
                        freqs=FrequencyPair(w1, w2), mode=mode, placement=placement)


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
    calls = [[w if i == j else BASE for j in range(4)] for i in range(4) for w in wrong]
    calls.append([[2.0, 3.0], [1.0, 1.0, 1.0], BASE, BASE])
    assert [args for args in calls if _outcome(verify.exact_efficiency, args) != "error"] == []
