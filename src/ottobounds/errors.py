"""Exception types, the checks that raise them, and the mode label a ModeError carries.

A typed answer on valid input (``ModeError``, ``NoSolutionError``, ...) is
raised as ``OttoError(template, *values)`` and formats its message only when
``str()`` reads it.  API note: such an error's ``args`` hold the template and
its values, not the message, and its ``repr`` shows them.
"""

import math
import numbers
from enum import Enum


class OttoError(Exception):
    """Base class for every error raised by this package.

    ``OttoError(message)`` behaves as any exception; ``OttoError(template,
    *values)`` keeps both in ``args`` and formats them on ``str()``.
    """

    def __str__(self):
        if len(self.args) > 1:
            return self.args[0].format(*self.args[1:])
        return super().__str__()


class DomainError(OttoError, ValueError):
    """An argument lies outside the physical domain of a formula."""


class ModeError(OttoError, ValueError):
    """The cycle is not operating in the mode the caller asked about."""

    def __init__(self, message, *values, mode=None):
        self.mode = mode    # BaseException.__new__ has stored args already


class OperatingMode(Enum):
    """Sign-pattern label of a cycle's heats and work."""

    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    HEATER = "heater"
    ACCELERATOR = "accelerator"


# Bound once, as cycle binds its placements: the hot paths read these globals.
_ENGINE, _REFRIGERATOR, _HEATER, _ACCELERATOR = OperatingMode


def _classify_mode(q2, q4, w_ext):
    """Operating-mode label from the sign pattern of the heats and work.

    Engine: absorbs at the hot contact, rejects at the cold one, extracts
    net work.  Accelerator: same heat pattern but net work is spent.
    Refrigerator: draws heat out of the cold reservoir at the cost of work.
    Boundary ties are never labelled engine: a zero-work tie with
    engine-pattern heats counts as an accelerator, and every remaining
    pattern (both heats rejected, or exact zeros in the heats) as a heater.
    NaN fails every comparison: NaN work with engine-pattern heats is an
    accelerator, any other NaN a heater.  This is the one definition of a
    refrigerator, `fridge`'s included; its ``cooling_feasible`` asks only
    whether a finite COP bound exists.  ``heats_work(spec).mode_label`` is
    this label for a cycle.
    """
    if q2 > 0.0 and q4 < 0.0:
        return _ENGINE if w_ext > 0.0 else _ACCELERATOR
    if q2 < 0.0 and q4 > 0.0 and w_ext < 0.0:
        return _REFRIGERATOR
    return _HEATER


class SingularityError(OttoError, ArithmeticError):
    """A closed-form expression was evaluated exactly at a pole."""


class InfeasibleError(OttoError, ValueError):
    """The requested operating regime is outside its feasibility window."""


class NoSolutionError(OttoError, ValueError):
    """An inversion has no real solution for the given inputs."""


class BracketError(OttoError, ValueError):
    """A root bracket does not contain a sign change."""


# The one argument-validity layer.  Every check accepts Python ints and
# floats and numpy real scalars, returns a Python float, and raises
# DomainError for anything else: bools, strings, None, arrays, NaN, +-inf.

_INF = math.inf


def as_real(value):
    """The type gate: ``value`` as a Python float, or NaN if it is not a real scalar.

    NaN fails every range comparison, so a caller only has to compare.
    """
    if type(value) is float:
        return value
    if type(value) is bool or not isinstance(value, (int, float, numbers.Real)):
        return math.nan
    try:
        return float(value)
    except OverflowError:    # an int beyond the double range
        return math.nan


def positive(name, value):
    """A finite real > 0."""
    v = value if type(value) is float else as_real(value)
    if 0.0 < v < _INF:
        return v
    raise DomainError(f"{name} must be a positive finite number, got {value!r}")


def nonnegative(name, value):
    """A finite real >= 0."""
    v = value if type(value) is float else as_real(value)
    if 0.0 <= v < _INF:
        return v
    raise DomainError(f"{name} must be a non-negative finite number, got {value!r}")


def finite(name, value):
    """A finite real."""
    v = value if type(value) is float else as_real(value)
    if -_INF < v < _INF:
        return v
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


def unit_open(name, value):
    """A real strictly inside (0, 1)."""
    v = value if type(value) is float else as_real(value)
    if 0.0 < v < 1.0:
        return v
    raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def nonnegative_int(name, value):
    """An integer >= 0 (numpy integers too, not bools or integral floats), as an int."""
    if type(value) is not bool and isinstance(value, numbers.Integral) and value >= 0:
        return int(value)
    raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
