import dataclasses
import gc
import math
import pickle
from enum import Enum

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference as ref
from ottobounds.cycle import (
    AdiabaticityMode,
    BathSpec,
    CycleSpec,
    FrequencyPair,
    OperatingMode,
    SqueezePlacement,
    _classify_mode,
    _delta_h,
    effective_temperature,
    efficiency_sudden,
    heats_work,
    lambda_sudden,
)
from ottobounds.errors import DomainError, ModeError

REL = 1e-12


def engine_example(r=0.0):
    return CycleSpec(
        cold=BathSpec(beta=2.0),
        hot=BathSpec(beta=0.2, r=r),
        freqs=FrequencyPair(1.0, 2.0),
        mode=AdiabaticityMode.sudden_switch(),
    )


def cold_fridge_example():
    return CycleSpec(
        cold=BathSpec(beta=0.01 / 0.75, r=0.2),
        hot=BathSpec(beta=0.01),
        freqs=FrequencyPair(1.0, 2.0),
        mode=AdiabaticityMode.sudden_switch(),
        placement=SqueezePlacement.COLD_BATH,
    )


# ---------------------------------------------------------------------------
# Enhancement factor: the kernel _delta_h(x, r) that heats_work applies
# to the squeezed corners, at x = beta*omega.


def test_delta_h_is_exactly_one_without_squeezing():
    assert _delta_h(3.7 * 0.9, 0.0) == 1.0


def test_delta_h_high_precision():
    assert math.isclose(_delta_h(1.0, 1.0), ref.delta_h(1.0, 1.0, 1.0), rel_tol=REL)


def test_delta_h_high_temperature_limit_is_cosh_2r():
    assert math.isclose(_delta_h(1e-6, 1.0), math.cosh(2.0), rel_tol=1e-5)
    assert math.isclose(_delta_h(1e-8, 0.3), math.cosh(0.6), rel_tol=1e-7)


def test_delta_h_exceeds_one_for_positive_r():
    assert _delta_h(2.0, 1e-4) > 1.0


# ---------------------------------------------------------------------------
# Quench factor and domain types


def test_lambda_sudden_values():
    assert lambda_sudden(FrequencyPair(1.0, 2.0)) == 1.25
    assert lambda_sudden(FrequencyPair(1.0, 10.0)) == 5.05


def test_lambda_sudden_near_equal_frequencies():
    lam = lambda_sudden(FrequencyPair(1.0, 1.0 + 1e-6))
    # lambda - 1 = (w2 - w1)^2 / (2 w1 w2) = 5e-13 here
    assert 1.0 <= lam <= 1.0 + 1e-12


def test_frequency_pair_rejects_degenerate_and_reversed():
    with pytest.raises(DomainError):
        FrequencyPair(1.0, 1.0)
    with pytest.raises(DomainError):
        FrequencyPair(2.0, 1.0)
    with pytest.raises(DomainError):
        FrequencyPair(-1.0, 1.0)


def test_frequency_pair_holds_only_its_two_frequencies():
    pair = FrequencyPair(1.0, 2.0)
    assert vars(pair) == {"omega1": 1.0, "omega2": 2.0}
    assert not hasattr(pair, "ratio")


def test_bath_spec_validation():
    with pytest.raises(DomainError):
        BathSpec(beta=0.0)
    with pytest.raises(DomainError):
        BathSpec(beta=1.0, r=-0.1)


def test_adiabaticity_mode_validation():
    assert AdiabaticityMode.adiabatic().lambda_for(FrequencyPair(1.0, 2.0)) == 1.0
    assert AdiabaticityMode.custom(2.0).lambda_for(FrequencyPair(1.0, 2.0)) == 2.0
    with pytest.raises(DomainError):
        AdiabaticityMode.custom(0.99)
    with pytest.raises(DomainError):
        AdiabaticityMode("sudden", 1.3)
    with pytest.raises(DomainError):
        AdiabaticityMode("custom")    # a custom mode needs its factor


# ---------------------------------------------------------------------------
# Fast construction paths: the shared modes, custom(lam) and the placement
# lookup by value give what the plain constructors give.

# The same members under the same name, with Enum's own call by value.
PLAIN_PLACEMENT = Enum("SqueezePlacement", [("HOT_BATH", "hot"), ("COLD_BATH", "cold")])


def _placement(enum, *args, **kwargs):
    """The member's name, or the type and text of what the call raised."""
    try:
        return enum(*args, **kwargs).name
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("args, kwargs", [
    (("hot",), {}), (("cold",), {}), (("warm",), {}), ((None,), {}), (([],), {}), ((1,), {}),
    ((), {}), (("hot", 1), {}), ((), {"value": "cold"}), (("hot",), {"names": None}),
], ids=repr)
def test_placement_by_value_matches_plain_enum(args, kwargs):
    got = _placement(SqueezePlacement, *args, **kwargs)
    assert got == _placement(PLAIN_PLACEMENT, *args, **kwargs)


def test_placement_of_a_member_is_that_member():
    for member in SqueezePlacement:
        assert SqueezePlacement(member) is member


@pytest.mark.parametrize("shared, built", [
    (AdiabaticityMode.adiabatic, lambda: AdiabaticityMode("adiabatic")),
    (AdiabaticityMode.sudden_switch, lambda: AdiabaticityMode("sudden")),
    (lambda: AdiabaticityMode.custom(1.5), lambda: AdiabaticityMode("custom", 1.5)),
], ids=["adiabatic", "sudden", "custom"])
def test_fast_modes_keep_the_record_contract(shared, built):
    mode, twin = shared(), built()
    assert type(mode) is AdiabaticityMode
    assert mode == twin and hash(mode) == hash(twin) and repr(mode) == repr(twin)
    assert list(vars(mode)) == ["kind", "lam"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mode.lam = 2.0
    assert pickle.loads(pickle.dumps(mode)) == twin
    freqs = FrequencyPair(1.0, 3.0)
    assert mode.lambda_for(freqs) == twin.lambda_for(freqs)


def test_adiabatic_and_sudden_modes_are_shared():
    assert AdiabaticityMode.adiabatic() is AdiabaticityMode.adiabatic()
    assert AdiabaticityMode.sudden_switch() is AdiabaticityMode.sudden_switch()
    assert AdiabaticityMode.custom(2.0) is not AdiabaticityMode.custom(2.0)


def test_a_mode_subclass_builds_its_own_instances():
    class Ramp(AdiabaticityMode):
        def __init__(self, kind, lam=None):
            super().__init__(kind, lam)
            self.__dict__["built"] = True

    modes = [Ramp.adiabatic(), Ramp.sudden_switch(), Ramp.custom(2.0)]
    kinds = [(type(m) is Ramp, m.kind, m.built) for m in modes]
    fresh = Ramp.sudden_switch() is not Ramp.sudden_switch()
    # Drop the class so that Record.__subclasses__() lists the package's own types again.
    del Ramp, modes
    gc.collect()
    assert kinds == [(True, "adiabatic", True), (True, "sudden", True), (True, "custom", True)]
    assert fresh


@pytest.mark.parametrize("lam", [0.5, True, "x", math.nan, math.inf, None], ids=repr)
def test_custom_keeps_its_error_texts(lam):
    with pytest.raises(DomainError) as fast:
        AdiabaticityMode.custom(lam)
    with pytest.raises(DomainError) as built:
        AdiabaticityMode("custom", lam)
    assert str(fast.value) == str(built.value) == (
        f"custom adiabaticity factor must be >= 1, got {lam!r}")


def test_cycle_spec_requires_colder_cold_bath():
    with pytest.raises(DomainError):
        CycleSpec(
            cold=BathSpec(beta=0.1),
            hot=BathSpec(beta=0.2),
            freqs=FrequencyPair(1.0, 2.0),
            mode=AdiabaticityMode.sudden_switch(),
        )


def test_cycle_spec_rejects_squeezing_on_the_idle_bath():
    with pytest.raises(DomainError):
        CycleSpec(
            cold=BathSpec(beta=2.0, r=0.3),
            hot=BathSpec(beta=0.2),
            freqs=FrequencyPair(1.0, 2.0),
            mode=AdiabaticityMode.sudden_switch(),
            placement=SqueezePlacement.HOT_BATH,
        )


@pytest.mark.parametrize("placement", ["hot", "cold", None])
def test_cycle_spec_rejects_a_placement_that_is_not_a_member(placement):
    # CycleSpec takes the two members only; CycleSpec.of turns a value into one.
    with pytest.raises(DomainError, match="placement must be a SqueezePlacement member"):
        CycleSpec(BathSpec(2.0, 0.5), BathSpec(0.2), FrequencyPair(1.0, 2.0),
                  AdiabaticityMode.sudden_switch(), placement)


@pytest.mark.parametrize("placement", ["hot", "cold"])
@pytest.mark.parametrize("mode, lam", [("adiabatic", None), ("sudden", None), ("custom", 1.5)])
def test_of_is_the_nested_build_with_r_on_the_named_bath(placement, mode, lam):
    args = (1.0, 2.0, 2.0, 0.2, 0.3, placement, mode, lam)
    cold, hot = {"hot": (BathSpec(2.0), BathSpec(0.2, 0.3)),
                 "cold": (BathSpec(2.0, 0.3), BathSpec(0.2))}[placement]
    nested = CycleSpec(cold, hot, FrequencyPair(1.0, 2.0), AdiabaticityMode(mode, lam),
                       SqueezePlacement(placement))
    spec = CycleSpec.of(*args)
    assert type(spec) is CycleSpec and spec == nested and repr(spec) == repr(nested)
    assert getattr(spec, placement).r == 0.3 and spec.cold.r + spec.hot.r == 0.3
    # One bad value per argument: of raises what the nested constructor raises.
    bad = [
        (0, -1.0, lambda: FrequencyPair(-1.0, 2.0)),
        (1, 0.5, lambda: FrequencyPair(1.0, 0.5)),
        (2, 0.0, lambda: BathSpec(0.0)),
        (2, 0.1, lambda: CycleSpec(BathSpec(0.1), BathSpec(0.2), FrequencyPair(1.0, 2.0),
                                   AdiabaticityMode.adiabatic())),
        (3, math.nan, lambda: BathSpec(math.nan)),
        (4, -1.0, lambda: BathSpec(0.2, -1.0)),
        (6, "ramp", lambda: AdiabaticityMode("ramp", lam)),
        (7, 0.5, lambda: AdiabaticityMode(mode, 0.5)),
    ]
    for i, value, build in bad:
        with pytest.raises(Exception) as want:
            build()
        with pytest.raises(type(want.value)) as got:
            CycleSpec.of(*args[:i], value, *args[i + 1:])
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    # But a placement that is no member's value is a DomainError, where
    # SqueezePlacement itself raises ValueError.
    with pytest.raises(DomainError, match="^unknown squeeze placement 'warm'$"):
        CycleSpec.of(*args[:5], "warm", *args[6:])


# ---------------------------------------------------------------------------
# Corner energies, heats, work


def _corners(perf):
    return perf.h_a, perf.h_b, perf.h_c, perf.h_d


def test_corner_energies_engine_example():
    h = _corners(heats_work(engine_example()))
    for got, want in zip(h, ref.corner_energies(1.0, 2.0, 2.0, 0.2, 0.0)):
        assert math.isclose(got, want, rel_tol=REL)


def test_custom_lambda_scales_stroke_corners():
    base = engine_example()
    lam2 = CycleSpec(base.cold, base.hot, base.freqs, AdiabaticityMode.custom(2.0))
    h1 = _corners(heats_work(CycleSpec(base.cold, base.hot, base.freqs,
                                       AdiabaticityMode.adiabatic())))
    h2 = _corners(heats_work(lam2))
    assert h2[0] == h1[0] and h2[2] == h1[2]
    assert math.isclose(h2[1], 2.0 * h1[1], rel_tol=1e-15)
    assert math.isclose(h2[3], 2.0 * h1[3], rel_tol=1e-15)


def test_placement_is_irrelevant_without_squeezing():
    # With r = 0 both placements multiply corners by exactly 1.0, so the
    # results agree bitwise.
    hot = CycleSpec(
        cold=BathSpec(1.7), hot=BathSpec(0.3), freqs=FrequencyPair(0.8, 1.9),
        mode=AdiabaticityMode.sudden_switch(), placement=SqueezePlacement.HOT_BATH,
    )
    cold = CycleSpec(
        cold=BathSpec(1.7), hot=BathSpec(0.3), freqs=FrequencyPair(0.8, 1.9),
        mode=AdiabaticityMode.sudden_switch(), placement=SqueezePlacement.COLD_BATH,
    )
    assert heats_work(hot) == heats_work(cold)


def test_heats_work_engine_example():
    perf = heats_work(engine_example())
    q2, q4, w_ext = ref.heats(1.0, 2.0, 2.0, 0.2, 0.0)
    assert math.isclose(perf.q2, q2, rel_tol=REL)
    assert math.isclose(perf.q4, q4, rel_tol=REL)
    assert math.isclose(perf.w_ext, w_ext, rel_tol=REL)
    assert perf.mode_label is OperatingMode.ENGINE
    assert math.isclose(perf.eta, w_ext / q2, rel_tol=REL)
    assert perf.cop is None


def test_heats_work_squeezed_engine_example():
    perf = heats_work(engine_example(r=0.5))
    q2, q4, w_ext = ref.heats(1.0, 2.0, 2.0, 0.2, 0.5)
    assert math.isclose(perf.q2, q2, rel_tol=REL)
    assert math.isclose(perf.q4, q4, rel_tol=REL)
    assert math.isclose(perf.w_ext, w_ext, rel_tol=REL)
    assert math.isclose(perf.eta, w_ext / q2, rel_tol=REL)


def test_heats_work_cold_squeezed_refrigerator():
    perf = heats_work(cold_fridge_example())
    assert perf.mode_label is OperatingMode.REFRIGERATOR
    assert perf.q4 > 0 > perf.q2
    assert perf.w_ext < 0
    _, q4, w_ext = ref.heats(1.0, 2.0, 0.01 / 0.75, 0.01, 0.2, placement="cold")
    assert math.isclose(perf.cop, q4 / -w_ext, rel_tol=1e-11)
    assert perf.work_input == -perf.w_ext
    assert perf.eta is None


def test_degenerate_cycle_exchanges_nothing():
    # Equal coth arguments on both isochores and a quasi-static stroke.
    spec = CycleSpec(
        cold=BathSpec(2.0), hot=BathSpec(1.0), freqs=FrequencyPair(1.0, 2.0),
        mode=AdiabaticityMode.adiabatic(),
    )
    perf = heats_work(spec)
    assert perf.q2 == 0.0 and perf.q4 == 0.0 and perf.w_ext == 0.0


def test_work_shrinks_as_frequencies_merge():
    # The (omega2^2 - omega1^2) prefactor kills the work continuously.
    prev = None
    for w2 in (2.0, 1.5, 1.1, 1.01, 1.001, 1.0001):
        spec = CycleSpec(
            cold=BathSpec(5.0), hot=BathSpec(0.05), freqs=FrequencyPair(1.0, w2),
            mode=AdiabaticityMode.sudden_switch(),
        )
        w = heats_work(spec).w_ext
        assert w > 0
        if prev is not None:
            assert w < prev
        prev = w
    assert prev < 5e-3


spec_draw = st.tuples(
    st.floats(0.2, 0.95),    # z
    st.floats(0.3, 3.0),     # omega2
    st.floats(0.05, 3.0),    # beta2 * omega2
    st.floats(0.05, 0.95),   # tau
    st.floats(0.0, 2.5),     # r
)


def build_spec(draw):
    z, w2, bw, tau, r = draw
    b2 = bw / w2
    return CycleSpec.of(z * w2, w2, b2 / tau, b2, r)


@given(draw=spec_draw)
def test_first_law_closure(draw):
    perf = heats_work(build_spec(draw))
    h_a, h_b, h_c, h_d = _corners(perf)
    scale = abs(perf.q2) + abs(perf.q4) + 1e-300
    assert abs(perf.q2 - (h_c - h_b)) <= 1e-13 * scale
    assert abs(perf.q4 - (h_a - h_d)) <= 1e-13 * scale
    assert abs(perf.w_ext - (perf.q2 + perf.q4)) <= 1e-13 * scale


@given(draw=spec_draw)
def test_sudden_work_matches_closed_form(draw):
    # Independent route: the quench-work closed form in raw frequencies,
    # with coth written as 1/tanh.
    z, w2, bw, tau, r = draw
    perf = heats_work(build_spec(draw))
    w1, b2 = z * w2, bw / w2
    b1 = b2 / tau
    dh = 1.0 + (2.0 + math.expm1(b2 * w2)) * math.sinh(r) ** 2
    closed = (w2**2 - w1**2) / (4.0 * w1 * w2) * (
        w1 * dh / math.tanh(b2 * w2 / 2.0) - w2 / math.tanh(b1 * w1 / 2.0)
    )
    scale = abs(perf.q2) + abs(perf.q4)
    assert abs(perf.w_ext - closed) <= 1e-12 * scale


@given(draw=spec_draw)
def test_efficiency_matches_reciprocal_bracket_form(draw):
    z, w2, bw, tau, r = draw
    spec = build_spec(draw)
    perf = heats_work(spec)
    assume(perf.mode_label is OperatingMode.ENGINE)
    # Near-zero work loses the comparison to cancellation in the energy route;
    # stay away from the positive-work boundary.
    assume(perf.w_ext > 5e-3 * (abs(perf.q2) + abs(perf.q4)))
    b2 = bw / w2
    b1 = b2 / tau
    dh = 1.0 + (2.0 + math.expm1(b2 * w2)) * math.sinh(r) ** 2
    x = z * dh * math.tanh(b1 * z * w2 / 2.0) / math.tanh(b2 * w2 / 2.0)
    bracket = 1.0 / (2.0 / (1.0 - z * z) + 1.0 / (x - 1.0))
    assert math.isclose(efficiency_sudden(spec), bracket, rel_tol=1e-12)


def test_efficiency_requires_engine_mode():
    with pytest.raises(ModeError) as err:
        efficiency_sudden(cold_fridge_example())
    assert err.value.mode is OperatingMode.REFRIGERATOR
    assert "refrigerator" in str(err.value)


@settings(deadline=None)
@given(draw=spec_draw, r_big=st.floats(0.0, 20.0))
def test_engine_efficiency_stays_below_half(draw, r_big):
    z, w2, bw, tau, _ = draw
    spec = build_spec((z, w2, bw, tau, r_big))
    perf = heats_work(spec)
    assume(perf.mode_label is OperatingMode.ENGINE)
    assert perf.eta < 0.5


def test_random_engine_search_never_reaches_half():
    # Five raw parameters, squeezing up to r = 20, fixed seed.
    rng = np.random.default_rng(20250810)
    engines = 0
    for _ in range(20000):
        z = rng.uniform(1e-3, 0.999)
        w2 = rng.uniform(0.05, 5.0)
        b2 = rng.uniform(1e-4, 10.0) / w2
        tau = rng.uniform(1e-3, 0.999)
        r = rng.uniform(0.0, 20.0)
        spec = CycleSpec(
            cold=BathSpec(b2 / tau), hot=BathSpec(b2, r=r),
            freqs=FrequencyPair(z * w2, w2), mode=AdiabaticityMode.sudden_switch(),
        )
        perf = heats_work(spec)
        if perf.mode_label is OperatingMode.ENGINE:
            engines += 1
            assert perf.eta < 0.5
    assert engines > 2000  # the sweep genuinely explored engine territory


# ---------------------------------------------------------------------------
# Mode taxonomy


def test_mode_labels_cover_all_four_regimes():
    assert heats_work(engine_example()).mode_label is OperatingMode.ENGINE
    assert heats_work(cold_fridge_example()).mode_label is OperatingMode.REFRIGERATOR

    heater = CycleSpec(
        cold=BathSpec(2.0), hot=BathSpec(1.5), freqs=FrequencyPair(1.0, 2.0),
        mode=AdiabaticityMode.sudden_switch(),
    )
    perf = heats_work(heater)
    assert perf.q2 < 0 and perf.q4 < 0
    assert perf.mode_label is OperatingMode.HEATER

    accelerator = CycleSpec(
        cold=BathSpec(2.0), hot=BathSpec(0.55), freqs=FrequencyPair(1.0, 2.0),
        mode=AdiabaticityMode.sudden_switch(),
    )
    perf = heats_work(accelerator)
    assert perf.q2 > 0 > perf.q4 and perf.w_ext < 0
    assert perf.mode_label is OperatingMode.ACCELERATOR


def test_classify_mode_boundary_ties_are_not_engines():
    assert _classify_mode(1.0, -1.0, 0.0) is OperatingMode.ACCELERATOR
    assert _classify_mode(0.0, 0.0, 0.0) is OperatingMode.HEATER


# ---------------------------------------------------------------------------
# Effective temperature


def test_effective_temperature_thermal_case_is_exact():
    assert effective_temperature(2.5, 0.7, 0.0) == 1.0 / 2.5


def test_effective_temperature_high_temperature_limit():
    # T -> cosh(2r)/beta as beta*omega -> 0
    assert math.isclose(effective_temperature(1.0, 1e-6, 0.5), math.cosh(1.0), rel_tol=1e-5)


def test_effective_temperature_high_precision():
    want = ref.effective_temperature(1.0, 1.0, 1.0)
    assert math.isclose(effective_temperature(1.0, 1.0, 1.0), want, rel_tol=REL)


def test_effective_temperature_inverts_the_squeezed_occupation():
    beta, omega, r = 0.8, 1.3, 0.9
    t = effective_temperature(beta, omega, r)
    n = ref.occupation(beta, omega, r)
    assert math.isclose(math.exp(-omega / t), float(n / (1 + n)), rel_tol=1e-14)


@given(beta=st.floats(0.05, 10.0), omega=st.floats(0.05, 5.0), r=st.floats(1e-4, 5.0))
def test_effective_temperature_exceeds_bath_temperature(beta, omega, r):
    assert effective_temperature(beta, omega, r) > 1.0 / beta


def test_effective_temperature_of_a_squeezed_bath_high_precision():
    want = ref.effective_temperature(1.0, 1.0, 0.5)
    assert math.isclose(effective_temperature(1.0, 1.0, 0.5), want, rel_tol=REL)


def test_effective_temperature_cold_limit_is_pure_squeezing():
    # beta*omega -> inf leaves N = sinh^2 r: T = omega / ln(coth^2 r)
    want = 1.0 / (2.0 * math.log(1.0 / math.tanh(1.2)))
    assert math.isclose(effective_temperature(60.0, 1.0, 1.2), want, rel_tol=1e-12)


@given(
    beta=st.floats(0.05, 20.0),
    omega=st.floats(0.05, 5.0),
    r1=st.floats(0.0, 4.0),
    dr=st.floats(1e-3, 3.0),
)
def test_effective_temperature_strictly_increasing_in_r(beta, omega, r1, dr):
    assert effective_temperature(beta, omega, r1 + dr) > effective_temperature(beta, omega, r1)


@pytest.mark.parametrize("beta,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0)])
def test_effective_temperature_at_r_zero_rejects_bad_args(beta, omega):
    # At r = 0 T is 1/beta and omega is not used, but it is still checked.
    with pytest.raises(DomainError):
        effective_temperature(beta, omega, 0.0)
