"""Python-level calls of one cycle query, counted, not timed.

A cycle query builds its spec from plain values through ``CycleSpec.of``
and evaluates it; an effective_temperature query takes plain values.
``sys.setprofile`` sees every Python frame that opens on the way; the
counts below are the ones the code has now, so a call layer added
anywhere on that path fails here, with no timing noise.
"""

import sys

import pytest

from ottobounds import cycle
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


def _python_calls(call, *args):
    """Names of the Python functions that ``call(*args)`` enters, in order."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call(*args)
    except ModeError:
        pass
    finally:
        sys.setprofile(None)
    return names[1:]   # the first is ``call`` itself


@pytest.mark.parametrize("key", CALLS, ids="-".join)
def test_a_cycle_query_makes_a_fixed_number_of_python_calls(key):
    _python_calls(_query, *key)    # first call: nothing lazy is counted
    names = _python_calls(_query, *key)
    assert len(names) == CALLS[key], names


@pytest.mark.parametrize("regime", T_CALLS)
def test_an_effective_temperature_query_makes_a_fixed_number_of_python_calls(regime):
    args, calls = T_CALLS[regime]
    _python_calls(cycle.effective_temperature, *args)
    names = _python_calls(cycle.effective_temperature, *args)
    assert len(names) == calls, names
