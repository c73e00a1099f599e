import math
import pickle

import numpy as np
import pytest

from ottobounds import engine, fridge, oracle, special, verify
from ottobounds.cycle import OperatingMode
from ottobounds.errors import (
    DomainError,
    InfeasibleError,
    ModeError,
    NoSolutionError,
    OttoError,
    SingularityError,
    as_real,
    finite,
    nonnegative,
    nonnegative_int,
    positive,
    unit_open,
)
from test_hotpaths import CALLS

# ---------------------------------------------------------------------------
# The checks themselves


@pytest.mark.parametrize("value", [0.25, 3, np.float64(0.25), np.float32(0.25), np.int64(3), np.uint8(3)])
def test_real_scalars_come_back_as_python_floats(value):
    for check in (positive, nonnegative, finite):
        got = check("x", value)
        assert type(got) is float and got == float(value)
    assert type(as_real(value)) is float


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, math.nan, math.inf,
                                   -math.inf, np.array(0.5), [0.5], 10**400])
def test_everything_else_is_a_domain_error(value):
    for check in (positive, nonnegative, unit_open, finite):
        with pytest.raises(DomainError, match="^x must "):
            check("x", value)


def test_ranges_and_messages():
    assert nonnegative("r", 0) == 0.0
    assert finite("x", -1e308) == -1e308
    with pytest.raises(DomainError, match="r must be a positive finite number, got 0"):
        positive("r", 0)
    with pytest.raises(DomainError, match=r"r must be a non-negative finite number, got -0.1"):
        nonnegative("r", -0.1)
    for edge in (0.0, 1.0):
        with pytest.raises(DomainError, match=r"z must lie strictly inside \(0, 1\)"):
            unit_open("z", edge)


def test_nonnegative_int():
    assert nonnegative_int("n", 0) == 0
    got = nonnegative_int("n", np.int64(7))
    assert type(got) is int and got == 7
    for bad in (-1, 1.5, 2.0, True, "3", None, np.float64(3.0)):
        with pytest.raises(DomainError, match="n must be a non-negative integer"):
            nonnegative_int("n", bad)


# ---------------------------------------------------------------------------
# The search primitives and the exact-efficiency kernel, which take
# callables and arrays, turn what they cannot use into DomainError too.
# Each of these raised a raw TypeError or ValueError, or returned a value.


def _nan_inside(r):
    """r - 0.5, except NaN on (0.3, 0.7): the root is not where a bisection lands."""
    return math.nan if 0.3 < r < 0.7 else r - 0.5


def _line(x):
    return x - 0.5


@pytest.mark.parametrize("call", [
    pytest.param(lambda: special.axis_points(math.nan, 1.0, 3), id="axis_points(nan)"),
    pytest.param(lambda: special.axis_points("a", 1.0, 3), id="axis_points('a')"),
    pytest.param(lambda: special.axis_points(0.0, math.inf, 3), id="axis_points(stop=inf)"),
    # stop - start overflows: these gave [nan, inf, 1e308] and [nan, 1.7e308].
    pytest.param(lambda: special.axis_points(-1e308, 1e308, 3), id="axis_points(span=inf)"),
    pytest.param(lambda: special.axis_points(-1.7e308, 1.7e308, 2), id="axis_points(span=inf, 2)"),
    pytest.param(lambda: oracle.refine_parabolic(_line, "a"), id="refine_parabolic(x='a')"),
    pytest.param(lambda: oracle.refine_parabolic(0.5, 0.5), id="refine_parabolic(fn=0.5)"),
    pytest.param(lambda: oracle.find_root_scalar(_line, (0, 1, 2)), id="find_root(3 ends)"),
    pytest.param(lambda: oracle.find_root_scalar(_line, None), id="find_root(bracket=None)"),
    pytest.param(lambda: oracle.find_root_scalar(lambda r: None, (0.0, 1.0)),
                 id="find_root(g->None)"),
    pytest.param(lambda: oracle.find_root_scalar(_nan_inside, (0.0, 1.0)),
                 id="find_root(g NaN inside)"),
    pytest.param(lambda: oracle.find_root_scalar("g", (0.0, 1.0)), id="find_root(g='g')"),
    pytest.param(lambda: oracle.maximize_scalar(lambda x: None, 0.0, 1.0),
                 id="maximize(fn->None)"),
    pytest.param(lambda: oracle.maximize_scalar(lambda x: "0.5", 0.0, 1.0),
                 id="maximize(fn->'0.5')"),
    pytest.param(lambda: oracle.maximize_scalar(None, 0.0, 1.0), id="maximize(fn=None)"),
    pytest.param(lambda: oracle.maximize_scalar(_line, -1e308, 1e308), id="maximize(width=inf)"),
    pytest.param(lambda: verify.exact_efficiency("a", 1.0, 0.5, 0.5), id="exact_efficiency('a')"),
    pytest.param(lambda: verify.exact_efficiency("2", 1.0, 0.5, 0.5), id="exact_efficiency('2')"),
    pytest.param(lambda: verify.exact_efficiency(2.0, None, 0.5, 0.5),
                 id="exact_efficiency(b=None)"),
    pytest.param(lambda: verify.exact_efficiency(2.0, 1.0, True, 0.5),
                 id="exact_efficiency(z=True)"),
    pytest.param(lambda: verify.exact_efficiency([2.0, 3.0], [1.0, 1.0, 1.0], 0.5, 0.5),
                 id="exact_efficiency(shapes)"),
    pytest.param(lambda: verify.exact_efficiency(2.0, 1.0, 0.5, [0.5, [0.5]]),
                 id="exact_efficiency(ragged)"),
    pytest.param(lambda: verify.exact_efficiency(2.0, 1.0, 0.5, [0.5, math.nan]),
                 id="exact_efficiency(nan)"),
])
def test_search_primitives_and_the_exact_efficiency_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_the_search_primitives_keep_their_valid_calls():
    assert special.axis_points(np.float64(0.0), 1, 3) == [0.0, 0.5, 1.0]
    assert abs(oracle.find_root_scalar(lambda r: -math.inf if r < 0.5 else r - 0.5 + 1e-3,
                                       (0.0, 1.0)) - 0.5) < 1e-11
    vertex = oracle.refine_parabolic(lambda x: -(x - 0.25) * (x - 0.25), np.int64(0))
    assert type(vertex) is float and abs(vertex - 0.25) < 1e-8
    assert verify.exact_efficiency(5.0, np.int64(1), 0.5, [0.0]).dtype == np.float64


def test_the_search_primitives_run_out_to_the_double_range():
    # h / TOL overflowed in the step count (a raw OverflowError), and
    # 0.5 * (a + b) overflowed to a root of inf.  The golden search stops at
    # 4 ulps of its larger end: down to the absolute TOL it took 1481 and
    # 1530 evaluations, 1458 of the latter at points already seen.
    for lo, hi, peak, evaluations in ((0.0, 1e297, 3e296, 75), (1.5e308, 1.7e308, 1.6e308, 71)):
        rep = oracle.maximize_scalar(lambda x: -abs(x - peak), lo, hi)
        assert (rep.best_input, rep.evaluations) == (peak, evaluations)
    assert oracle.find_root_scalar(lambda x: x - 1.5e308, (1e308, 1.7e308)) == 1.5e308


# ---------------------------------------------------------------------------
# A typed answer keeps its template and values in args and formats them
# only when str() reads it; a plain message is an ordinary exception.


def test_a_plain_message_keeps_its_str_args_and_repr():
    exc = OttoError("msg")
    assert (str(exc), exc.args, repr(exc)) == ("msg", ("msg",), "OttoError('msg')")
    assert str(DomainError("got {'a': 1}")) == "got {'a': 1}"    # not a template
    assert str(OttoError()) == ""


def test_a_template_formats_on_str():
    exc = NoSolutionError("eta={} at r={!r}", 0.1, 2)
    assert exc.args == ("eta={} at r={!r}", 0.1, 2)
    assert str(exc) == "eta=0.1 at r=2"
    assert repr(exc) == "NoSolutionError('eta={} at r={!r}', 0.1, 2)"


def test_mode_error_keeps_its_old_call_forms():
    exc = ModeError("no cooling", mode=OperatingMode.HEATER)
    assert (str(exc), exc.args, exc.mode) == ("no cooling", ("no cooling",), OperatingMode.HEATER)
    bare = ModeError("msg")
    assert (str(bare), bare.args, bare.mode) == ("msg", ("msg",), None)
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), str(back), back.mode) == (ModeError, "no cooling", OperatingMode.HEATER)


# (call, type, text, mode) of each raise site that answers valid input with a
# typed error, its text pinned byte for byte.
TYPED_ANSWERS = [
    pytest.param(
        lambda: CALLS["efficiency_sudden"](1.0, 1.5, 0.4, 0.3, 0.0, "hot", "sudden", None),
        ModeError, "efficiency is defined for engine operation only; this cycle runs as a refrigerator",
        OperatingMode.REFRIGERATOR, id="efficiency_sudden"),
    pytest.param(
        lambda: CALLS["cop_ht"](0.1, 0.3, 0.0),
        ModeError, "no cooling at z=0.1, tau=0.3, r=0.0: the cycle operates as a heater",
        OperatingMode.HEATER, id="cop_ht-heater"),
    pytest.param(
        lambda: CALLS["cop_ht"](0.24978485741311243, 0.03740549540630633, 0.09636747881868363),
        ModeError, "no cooling at z=0.24978485741311243, tau=0.03740549540630633, "
        "r=0.09636747881868363: the cycle operates as a engine",
        OperatingMode.ENGINE, id="cop_ht-engine"),
    pytest.param(
        lambda: engine.z2_of_eta(0.3, 0.5, 0),
        NoSolutionError, "no compression ratio reaches eta=0.3 at eta_c=0.5, r=0.0; "
        "the bound is eta_up=0.1111111111111111",
        None, id="z2_of_eta-above-eta_up"),
    pytest.param(
        lambda: engine.z2_of_eta(0.20427974833666124, 0.6714114753695926, 0.38418862936198384),
        NoSolutionError, "inversion discriminant negative at eta=0.20427974833666124, "
        "eta_c=0.6714114753695926, r=0.38418862936198384",
        None, id="z2_of_eta-discriminant"),
    pytest.param(
        lambda: fridge.zeta_up_thermal(np.float32(0.5)),
        InfeasibleError, "cooling requires zeta_c > 1 (the cold reservoir cannot sit below half "
        "the hot temperature), got zeta_c=0.5",
        None, id="zeta_up_thermal"),
    # 2 z^2 == tau (1 + z^2) exactly; r is named as the caller passed it.
    pytest.param(
        lambda: engine.efficiency_ht(0.5, 0.4, 0),
        SingularityError, "efficiency denominator vanishes at z=0.5, tau=0.4, r=0",
        None, id="efficiency_ht"),
]


def _raised(call):
    try:
        call()
    except OttoError as exc:
        return exc
    raise AssertionError("no typed answer")


@pytest.mark.parametrize("call, kind, text, mode", TYPED_ANSWERS)
def test_typed_answers_keep_their_text_and_mode(call, kind, text, mode):
    exc = _raised(call)
    assert type(exc) is kind and str(exc) == text and getattr(exc, "mode", None) is mode
    assert len(exc.args) > 1    # the template form, formatted only by str()


@pytest.mark.parametrize("call, kind, text, mode", TYPED_ANSWERS)
def test_typed_answers_survive_pickle(call, kind, text, mode):
    exc = _raised(call)
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), str(back), back.args) == (kind, text, exc.args)
    assert getattr(back, "mode", None) is mode
