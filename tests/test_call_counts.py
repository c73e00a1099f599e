"""Python-level calls of one query, counted, not timed.

A cycle query builds its spec from plain values through ``CycleSpec.of``
and evaluates it; an effective_temperature query takes plain values.
``sys.setprofile`` sees every Python frame that opens on the way; the
counts below are the ones the code has now, so a call layer added
anywhere on that path fails here, with no timing noise.  The same
profiler reads the ``name`` argument of each validator frame
(``positive``, ``nonnegative``, ``unit_open``): a public point function
checks each of its arguments exactly once, because internal callers go
through the unvalidated kernels, and a call on a validated spec checks
nothing.
"""

import sys
from collections import Counter

import pytest

from ottobounds import cycle, errors, fridge
from ottobounds.errors import ModeError

# (function, mode, placement) -> Python calls of one query.  The custom,
# cold-squeezed cycle below runs as an accelerator, so its efficiency_sudden
# query raises ModeError; every other one returns a value.
CALLS = {
    ("heats_work", "adiabatic", "hot"): 21,
    ("heats_work", "adiabatic", "cold"): 21,
    ("heats_work", "sudden", "hot"): 22,
    ("heats_work", "sudden", "cold"): 22,
    ("heats_work", "custom", "hot"): 21,
    ("heats_work", "custom", "cold"): 21,
    ("efficiency_sudden", "adiabatic", "hot"): 20,
    ("efficiency_sudden", "adiabatic", "cold"): 20,
    ("efficiency_sudden", "sudden", "hot"): 21,
    ("efficiency_sudden", "sudden", "cold"): 21,
    ("efficiency_sudden", "custom", "hot"): 20,
    ("efficiency_sudden", "custom", "cold"): 21,
}


# effective_temperature, one query per regime -> (beta, omega, r), Python
# calls: the three argument checks, and coth where N overflows.
T_CALLS = {
    "r=0": ((1.0, 1.0, 0.0), 3),
    "x<1e-8": ((1.0, 1e-9, 0.5), 3),
    "normal": ((1.0, 1.0, 0.5), 3),
    "N<DBL_MIN": ((709.0, 1.0, 1e-160), 3),
    "N=inf": ((1.0, 1.0, 356.0), 4),
}


def _query(fn, mode, placement):
    spec = cycle.CycleSpec.of(1.0, 2.0, 2.0, 0.2, 0.3, placement, mode,
                              1.5 if mode == "custom" else None)
    return getattr(cycle, fn)(spec)


VALIDATORS = {errors.positive.__code__, errors.nonnegative.__code__, errors.unit_open.__code__}


def _python_calls(call, *args):
    """Names of the Python functions that ``call(*args)`` enters, in order,
    and a Counter of the argument names that its validators check."""
    names, checked = [], Counter()

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
            if frame.f_code in VALIDATORS:
                checked[frame.f_locals["name"]] += 1

    sys.setprofile(profile)
    try:
        call(*args)
    except ModeError:
        pass
    finally:
        sys.setprofile(None)
    return names[1:], checked   # the first name is ``call`` itself


@pytest.mark.parametrize("key", CALLS, ids="-".join)
def test_a_cycle_query_makes_a_fixed_number_of_python_calls(key):
    _python_calls(_query, *key)    # first call: nothing lazy is counted
    names, _ = _python_calls(_query, *key)
    assert len(names) == CALLS[key], names


@pytest.mark.parametrize("regime", T_CALLS)
def test_an_effective_temperature_query_makes_a_fixed_number_of_python_calls(regime):
    args, calls = T_CALLS[regime]
    _python_calls(cycle.effective_temperature, *args)
    names, _ = _python_calls(cycle.effective_temperature, *args)
    assert len(names) == calls, names


SPECS = {placement: cycle.CycleSpec.of(1.0, 2.0, 2.0, 0.2, 0.5, placement)
         for placement in ("hot", "cold")}
# case -> (function, arguments, the argument names its validators check).
CHECKS = {
    **{f"fridge_report-{tau}-{r}": (fridge.fridge_report, (tau, r), {"tau": 1, "r": 1})
       for tau, r in ((0.6, 0.1), (0.3, 0.1), (0.5, 500.0), (0.4, 0.0))},
    **{f"effective_temperature-r={r}": (cycle.effective_temperature, (1.0, 1.0, r),
                                        {"beta": 1, "omega": 1, "r": 1})
       for r in (0.0, 1.0, 400.0)},
    **{f"{fn.__name__}-{placement}": (fn, (spec,), {})
       for fn in (cycle.heats_work, cycle.efficiency_sudden) for placement, spec in SPECS.items()},
}


@pytest.mark.parametrize("case", CHECKS)
def test_each_argument_is_validated_once(case):
    fn, args, checked = CHECKS[case]
    assert _python_calls(fn, *args)[1] == checked
