"""Each public point function validates each of its arguments exactly once.

The validators that ``cycle`` and ``fridge`` bind (``positive``,
``nonnegative``, ``unit_open``) are replaced by wrappers that count the
argument names they check; internal callers go through the unvalidated
kernels, so a public call checks each argument once, and a call on an
already-validated record checks nothing.
"""

from collections import Counter

import pytest

from ottobounds import cycle, errors, fridge


@pytest.fixture
def checked(monkeypatch):
    """Counter of the argument names validated while the test runs."""
    names = Counter()

    def counting(validator):
        def wrapper(name, value):
            names[name] += 1
            return validator(name, value)
        return wrapper

    for module in (cycle, fridge):
        for validator in ("positive", "nonnegative", "unit_open"):
            if hasattr(module, validator):
                monkeypatch.setattr(module, validator, counting(getattr(errors, validator)))
    return names


# Built before any test patches the validators.
SPECS = [cycle.CycleSpec.of(1.0, 2.0, 2.0, 0.2, 0.5, placement) for placement in ("hot", "cold")]


@pytest.mark.parametrize("tau, r", [(0.6, 0.1), (0.3, 0.1), (0.5, 500.0), (0.4, 0.0)])
def test_fridge_report_checks_tau_once_and_r_once(checked, tau, r):
    fridge.fridge_report(tau, r)
    assert checked == {"tau": 1, "r": 1}


@pytest.mark.parametrize("r", [0.0, 1.0, 400.0])
def test_effective_temperature_checks_each_argument_once(checked, r):
    cycle.effective_temperature(1.0, 1.0, r)
    assert checked == {"beta": 1, "omega": 1, "r": 1}


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("fn", [cycle.heats_work, cycle.efficiency_sudden])
def test_a_validated_spec_is_not_checked_again(checked, fn, spec):
    try:
        fn(spec)
    except errors.ModeError:
        pass
    assert checked == {}
