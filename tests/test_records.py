"""The record contract of the public value types.

Each type keeps what callers relied on from a frozen dataclass: positional
and keyword construction, the ``Name(field=value, ...)`` repr, equality and
hashing by field values, ``vars()`` in field order (the benchmark gate
fingerprints results with it), immutability, copying and pickling.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest

from ottobounds._record import Record
from ottobounds.cycle import (
    AdiabaticityMode,
    BathSpec,
    CyclePerformance,
    CycleSpec,
    FrequencyPair,
    OperatingMode,
    SqueezePlacement,
)
from ottobounds.engine import EngineBoundsReport, EngineParams
from ottobounds.fridge import FridgeBoundsReport, FridgeParams
from ottobounds.oracle import SupremumReport
from ottobounds.verify import CheckResult

_SPEC_ARGS = (BathSpec(2.0), BathSpec(0.2, 0.3), FrequencyPair(1.0, 2.0),
              AdiabaticityMode("sudden"), SqueezePlacement.HOT_BATH)

# (class, field names, positional arguments, pinned repr)
RECORDS = [
    (BathSpec, ("beta", "r"), (2.0, 0.5), "BathSpec(beta=2.0, r=0.5)"),
    (FrequencyPair, ("omega1", "omega2"), (1.0, 2.0),
     "FrequencyPair(omega1=1.0, omega2=2.0)"),
    (AdiabaticityMode, ("kind", "lam"), ("custom", 1.5),
     "AdiabaticityMode(kind='custom', lam=1.5)"),
    (CycleSpec, ("cold", "hot", "freqs", "mode", "placement"), _SPEC_ARGS,
     "CycleSpec(cold=BathSpec(beta=2.0, r=0.0), hot=BathSpec(beta=0.2, r=0.3), "
     "freqs=FrequencyPair(omega1=1.0, omega2=2.0), "
     "mode=AdiabaticityMode(kind='sudden', lam=None), "
     "placement=<SqueezePlacement.HOT_BATH: 'hot'>)"),
    (CyclePerformance,
     ("h_a", "h_b", "h_c", "h_d", "q2", "q4", "w_ext", "mode_label", "eta", "cop"),
     (1.0, 2.0, 3.0, 4.0, 1.0, -3.0, -2.0, OperatingMode.ACCELERATOR, None, None),
     "CyclePerformance(h_a=1.0, h_b=2.0, h_c=3.0, h_d=4.0, q2=1.0, q4=-3.0, w_ext=-2.0, "
     "mode_label=<OperatingMode.ACCELERATOR: 'accelerator'>, eta=None, cop=None)"),
    (EngineParams, ("z", "tau", "r"), (0.5, 0.2, 0.5), "EngineParams(z=0.5, tau=0.2, r=0.5)"),
    (EngineBoundsReport, ("eta_c", "eta_c_gen", "eta_up", "eta_mw", "z_star", "pwc_satisfied"),
     (0.2, 0.7, 0.3, 0.25, 0.8, True),
     "EngineBoundsReport(eta_c=0.2, eta_c_gen=0.7, eta_up=0.3, eta_mw=0.25, z_star=0.8, "
     "pwc_satisfied=True)"),
    (FridgeParams, ("z", "tau", "r"), (0.5, 0.6, 0.1), "FridgeParams(z=0.5, tau=0.6, r=0.1)"),
    (FridgeBoundsReport,
     ("zeta_c", "zeta_up", "tau_window", "r_window", "cooling_feasible", "reason"),
     (1.5, None, (0.25, 0.5), (0.0, 0.3), False, "too cold"),
     "FridgeBoundsReport(zeta_c=1.5, zeta_up=None, tau_window=(0.25, 0.5), "
     "r_window=(0.0, 0.3), cooling_feasible=False, reason='too cold')"),
    (SupremumReport, ("best_input", "best_value", "evaluations"), (0.25, 0.5, 10),
     "SupremumReport(best_input=0.25, best_value=0.5, evaluations=10)"),
    (CheckResult, ("name", "passed", "worst", "evaluations", "detail"),
     ("ceiling", True, 0.49, 100, "ok"),
     "CheckResult(name='ceiling', passed=True, worst=0.49, evaluations=100, detail='ok')"),
]


@pytest.fixture(params=RECORDS, ids=[row[0].__name__ for row in RECORDS])
def record(request):
    cls, fields, args, text = request.param
    return cls, fields, cls(*args), cls(**dict(zip(fields, args))), text


def test_positional_and_keyword_construction_agree(record):
    _, _, pos, kw, _ = record
    assert pos == kw
    assert not pos != kw


def test_repr_is_the_dataclass_form(record):
    _, _, pos, kw, text = record
    assert repr(pos) == repr(kw) == text


def test_equal_records_hash_equal(record):
    _, _, pos, kw, _ = record
    assert hash(pos) == hash(kw)


def test_vars_lists_the_fields_in_order(record):
    _, fields, pos, kw, _ = record
    assert list(vars(pos)) == list(vars(kw)) == list(fields)


def test_records_are_frozen(record):
    _, fields, pos, _, _ = record
    for name in (fields[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pos, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(pos, name)
    assert list(vars(pos)) == list(fields)


def test_copy_and_pickle_round_trip(record):
    _, fields, pos, _, text = record
    for twin in (copy.copy(pos), pickle.loads(pickle.dumps(pos))):
        assert type(twin) is type(pos)
        assert twin == pos
        assert list(vars(twin)) == list(fields)
        assert repr(twin) == text


def test_equality_is_per_class():
    # Same field values, different class: never equal (NotImplemented both ways).
    assert EngineBoundsReport(0.2, 0.7, 0.3, 0.25, 0.8, True) != (0.2, 0.7, 0.3, 0.25, 0.8, True)
    assert FridgeParams(0.5, 0.6, 0.1) != EngineParams(0.5, 0.6, 0.1)
    assert BathSpec(2.0).__eq__(FridgeParams(0.5, 0.6)) is NotImplemented
    assert BathSpec(2.0) != BathSpec(2.0, 0.1)


def test_defaults():
    assert BathSpec(2.0) == BathSpec(2.0, 0.0)
    assert AdiabaticityMode("sudden") == AdiabaticityMode("sudden", None)
    assert EngineParams(0.5, 0.2) == EngineParams(0.5, 0.2, 0.0)
    assert FridgeParams(0.5, 0.6) == FridgeParams(0.5, 0.6, 0.0)
    assert CycleSpec(*_SPEC_ARGS[:4]).placement is SqueezePlacement.HOT_BATH
    assert FridgeBoundsReport(1.5, None, (0.25, 0.5), (0.0, 0.3), False).reason is None


def test_every_record_type_is_checked():
    # A record type missing from RECORDS would skip every check above.
    for name in ("cli", "cycle", "engine", "errors", "fridge", "oracle", "special", "verify"):
        importlib.import_module(f"ottobounds.{name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    assert found == {row[0] for row in RECORDS}
