"""Python-level calls of one cycle query, counted, not timed.

A cycle query builds its spec from plain values, the way a caller or the
benchmark does, and evaluates it.  ``sys.setprofile`` sees every Python
frame that opens on the way; the counts below are the ones the code has
now, so a call layer added anywhere on that path fails here, with no
timing noise.
"""

import sys

import pytest

from ottobounds import cycle
from ottobounds.errors import ModeError

MODES = {"adiabatic": (cycle.AdiabaticityMode.adiabatic, ()),
         "sudden": (cycle.AdiabaticityMode.sudden_switch, ()),
         "custom": (cycle.AdiabaticityMode.custom, (1.5,))}

# (function, mode, placement) -> Python calls of one query.  The custom,
# cold-squeezed cycle below runs as an accelerator, so its efficiency_sudden
# query raises ModeError; every other one returns a value.
CALLS = {
    ("heats_work", "adiabatic", "hot"): 20,
    ("heats_work", "adiabatic", "cold"): 20,
    ("heats_work", "sudden", "hot"): 21,
    ("heats_work", "sudden", "cold"): 21,
    ("heats_work", "custom", "hot"): 20,
    ("heats_work", "custom", "cold"): 20,
    ("efficiency_sudden", "adiabatic", "hot"): 19,
    ("efficiency_sudden", "adiabatic", "cold"): 19,
    ("efficiency_sudden", "sudden", "hot"): 20,
    ("efficiency_sudden", "sudden", "cold"): 20,
    ("efficiency_sudden", "custom", "hot"): 19,
    ("efficiency_sudden", "custom", "cold"): 20,
}


def _query(fn, mode, placement):
    factory, args = MODES[mode]
    hot = placement == "hot"
    spec = cycle.CycleSpec(
        cold=cycle.BathSpec(2.0, 0.0 if hot else 0.3),
        hot=cycle.BathSpec(0.2, 0.3 if hot else 0.0),
        freqs=cycle.FrequencyPair(1.0, 2.0),
        mode=factory(*args),
        placement=cycle.SqueezePlacement(placement),
    )
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
