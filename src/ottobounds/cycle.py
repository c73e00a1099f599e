"""Exact bookkeeping of the four-stroke harmonic Otto cycle.

The working fluid is a harmonic oscillator driven around a cycle of two
frequency strokes (omega1 <-> omega2) and two heat-exchange strokes, one
against a cold thermal reservoir and one against a hot reservoir; either
reservoir may be squeezed.  Everything here is evaluated at finite
temperature with no high-temperature approximation, except for one
convention: the squeezed corners are scaled by the occupation ratio
delta_h = N/n (``_delta_h``), which tends to the squeezed state's energy
ratio cosh 2r only as beta*omega -> 0.  Units: hbar = k_B = 1, so
frequencies, inverse temperatures and energies share one energy scale.

Sign convention: heat absorbed by the oscillator is positive, and
``w_ext = q2 + q4`` is the net extracted work (positive when the cycle runs
as an engine).  Refrigerator work input is derived at the reporting layer
as ``-w_ext``.
"""

import math
import sys
from enum import Enum, EnumMeta

from ._record import Record
from .errors import (_ENGINE, _REFRIGERATOR, DomainError, ModeError, OperatingMode,
                     _classify_mode, as_real, nonnegative, positive)
from .special import coth

__all__ = [
    "AdiabaticityMode",
    "BathSpec",
    "CyclePerformance",
    "CycleSpec",
    "FrequencyPair",
    "OperatingMode",
    "SqueezePlacement",
    "effective_temperature",
    "efficiency_sudden",
    "heats_work",
    "lambda_sudden",
]

# sinh(r)**2 overflows past this; occupations saturate to inf there.
_SINH_OVERFLOW = 355.0
# Below the smallest normal double, 1/N of an occupation N may overflow.
_TINY = sys.float_info.min
# Below this beta*omega, T = cosh(2r)/beta to (1 + x^2/12), under half an ulp.
_X_SMALL = 1e-8


# Each public function below validates its arguments once, in signature
# order, and then calls a private kernel of x = beta*omega and r that
# validates nothing (effective_temperature, which no one calls internally,
# is its own kernel); internal callers, whose arguments are already valid,
# call the kernels directly.

def _delta_h(x, r):
    """Squeezing enhancement of the mean occupation at x = beta*omega,
    N/n = 1 + (2 + 1/n) sinh^2 r = 1 + (2 + expm1 x) sinh^2 r.

    Equals 1 exactly at r = 0 and tends to cosh(2r) as x -> 0; inf only
    where the factor exceeds the double range (r beyond ~355, or x large).
    """
    if r == 0.0:
        return 1.0
    try:
        if x < 709.0:
            s = math.sinh(r)
            return 1.0 + (2.0 + math.expm1(x)) * (s * s)
        # 2 + expm1 x is e^x to the last bit here, and e^x sinh^2 r is
        # exp(x + 2 ln sinh r), which neither overflows nor underflows early.
        return 1.0 + math.exp(x + 2.0 * math.log(math.sinh(r)))
    except OverflowError:   # sinh r (r past ~710.5) or the exponential
        return math.inf


def lambda_sudden(freqs):
    """Non-adiabaticity factor of an instantaneous frequency quench.

    (omega1^2 + omega2^2) / (2 omega1 omega2), at least 1, with equality
    only for equal frequencies (which FrequencyPair rejects).  Evaluated as
    omega2/(2 omega1) + omega1/(2 omega2), within about one ulp, with no
    square that overflows or underflows early: inf only where lambda itself
    exceeds the double range.
    """
    w1, w2 = freqs.omega1, freqs.omega2
    if w1 < 1.0:   # 2 w1 is exact and finite; w2 / w1 may overflow where lambda does not
        return w2 / (2.0 * w1) + w1 / (2.0 * w2)
    return 0.5 * (w2 / w1) + 0.5 * (w1 / w2)   # w2 / w1 <= DBL_MAX, 2 w1 may not be


class BathSpec(Record):
    """One reservoir: inverse temperature ``beta`` and squeezing strength ``r``."""

    def __init__(self, beta, r=0.0):
        d = self.__dict__
        d["beta"] = positive("beta", beta)
        d["r"] = nonnegative("r", r)


class FrequencyPair(Record):
    """The two stroke frequencies, strictly ordered omega1 < omega2.

    Equal frequencies are rejected outright: every downstream expression
    divides by (omega2 - omega1) or (1 - z^2), so the degenerate zero-work
    cycle would only ever surface as spurious 0/0 noise.
    """

    def __init__(self, omega1, omega2):
        omega1 = positive("omega1", omega1)
        omega2 = positive("omega2", omega2)
        if not omega1 < omega2:
            raise DomainError(
                f"need omega1 < omega2 strictly, got omega1={omega1}, omega2={omega2}"
            )
        d = self.__dict__
        d["omega1"] = omega1
        d["omega2"] = omega2


class AdiabaticityMode(Record):
    """How the frequency strokes are driven: a ``kind`` and, for custom, ``lam``.

    ``adiabatic()`` is the quasi-static limit (factor 1), ``sudden_switch()``
    the instantaneous quench, and ``custom(lam)`` accepts an externally
    computed factor lam >= 1 for any other ramp.  ``adiabatic()`` and
    ``sudden_switch()`` return one shared instance each (a new one on a
    subclass); ``custom(lam)`` is ``cls("custom", lam)``.
    """

    _KINDS = ("adiabatic", "sudden", "custom")

    def __init__(self, kind, lam=None):
        if kind not in self._KINDS:
            raise DomainError(f"unknown adiabaticity kind {kind!r}")
        if kind == "custom":
            factor = lam if type(lam) is float else as_real(lam)
            if not 1.0 <= factor < math.inf:
                raise DomainError(f"custom adiabaticity factor must be >= 1, got {lam!r}")
            lam = factor
        elif lam is not None:
            raise DomainError(f"{kind!r} mode does not take an explicit factor")
        d = self.__dict__
        d["kind"] = kind
        d["lam"] = lam

    @classmethod
    def adiabatic(cls):
        return _ADIABATIC if cls is AdiabaticityMode else cls("adiabatic")

    @classmethod
    def sudden_switch(cls):
        return _SUDDEN if cls is AdiabaticityMode else cls("sudden")

    @classmethod
    def custom(cls, lam):
        return cls("custom", lam)

    def lambda_for(self, freqs):
        """The adiabaticity factor this mode assigns to a frequency pair."""
        kind = self.kind
        if kind == "adiabatic":
            return 1.0
        if kind == "sudden":
            return lambda_sudden(freqs)
        return self.lam


_ADIABATIC = AdiabaticityMode("adiabatic")
_SUDDEN = AdiabaticityMode("sudden")


class _PlacementType(EnumMeta):
    """Looks one value up in ``_value2member_map_``, as ``Enum.__new__`` does
    first; any other call runs ``EnumMeta.__call__``, results and errors too."""

    def __call__(cls, *args, **kwargs):
        if len(args) == 1 and not kwargs:
            try:
                return cls._value2member_map_[args[0]]
            except (KeyError, TypeError):
                pass
        return super().__call__(*args, **kwargs)


class SqueezePlacement(Enum, metaclass=_PlacementType):
    """Which reservoir carries the squeezing."""

    HOT_BATH = "hot"
    COLD_BATH = "cold"


# Members bound once: on Python 3.11 each ``Enum.MEMBER`` lookup goes through
# EnumType's slow attribute hook, and ``member.value`` is an enum.property,
# so the hot paths read these globals and a member's ``_value_``.
_HOT_BATH, _COLD_BATH = SqueezePlacement


class CycleSpec(Record):
    """Full cycle configuration: ``cold``, ``hot``, ``freqs``, ``mode``, ``placement``.

    ``cold`` contacts the oscillator at omega1, ``hot`` at omega2, and the
    cold bath must be genuinely colder (cold.beta > hot.beta).  Exactly one
    side may carry squeezing, selected by ``placement`` (a SqueezePlacement
    member, not its value); the other bath must have r = 0.
    """

    def __init__(self, cold, hot, freqs, mode, placement=SqueezePlacement.HOT_BATH):
        if not cold.beta > hot.beta:
            raise DomainError(
                f"cold bath must be colder: need cold.beta > hot.beta, "
                f"got {cold.beta} <= {hot.beta}"
            )
        if placement is _HOT_BATH:
            idle = cold
        elif placement is _COLD_BATH:
            idle = hot
        else:
            raise DomainError(f"placement must be a SqueezePlacement member, got {placement!r}")
        if idle.r != 0.0:
            raise DomainError(
                f"the non-squeezed ({'cold' if idle is cold else 'hot'}) bath must have r = 0, "
                f"got r={idle.r}"
            )
        d = self.__dict__
        d["cold"] = cold
        d["hot"] = hot
        d["freqs"] = freqs
        d["mode"] = mode
        d["placement"] = placement

    @classmethod
    def of(cls, w1, w2, b_cold, b_hot, r=0.0, placement="hot", mode="sudden", lam=None):
        """The spec of plain values, with ``r`` on the bath that ``placement``
        names and r = 0 on the other.  It builds the mode, the placement, the
        baths, the frequencies and the spec, in that order, so the first bad
        argument raises its own constructor's error; a placement that is no
        member's value raises DomainError."""
        mode = AdiabaticityMode(mode, lam)
        try:
            placement = SqueezePlacement(placement)
        except ValueError:
            raise DomainError(f"unknown squeeze placement {placement!r}") from None
        if placement is _HOT_BATH:
            cold, hot = BathSpec(b_cold), BathSpec(b_hot, r)
        else:
            cold, hot = BathSpec(b_cold, r), BathSpec(b_hot)
        return cls(cold, hot, FrequencyPair(w1, w2), mode, placement)


class CyclePerformance(Record):
    """Corner energies, heats, net work and the operating-mode label.

    ``eta`` is populated only in engine mode, ``cop`` only in refrigerator
    mode.  ``q2 = h_c - h_b`` and ``q4 = h_a - h_d`` hold by construction,
    as does the first-law closure ``w_ext = q2 + q4``.
    """

    def __init__(self, h_a, h_b, h_c, h_d, q2, q4, w_ext, mode_label, eta=None, cop=None):
        d = self.__dict__
        d["h_a"] = h_a
        d["h_b"] = h_b
        d["h_c"] = h_c
        d["h_d"] = h_d
        d["q2"] = q2
        d["q4"] = q4
        d["w_ext"] = w_ext
        d["mode_label"] = mode_label
        d["eta"] = eta
        d["cop"] = cop

    @property
    def work_input(self):
        """Work pumped into the cycle, -w_ext (positive for a refrigerator)."""
        return -self.w_ext


def _heats(spec):
    """The corner kernel: (h_a, h_b, h_c, h_d, q2, q4, w_ext), each field read once."""
    freqs, cold, hot = spec.freqs, spec.cold, spec.hot
    w1, w2 = freqs.omega1, freqs.omega2
    b_cold, b_hot = cold.beta, hot.beta
    lam = spec.mode.lambda_for(freqs)
    c_cold = coth(0.5 * b_cold * w1)
    c_hot = coth(0.5 * b_hot * w2)
    if spec.placement is _HOT_BATH:
        f_cold, f_hot = 1.0, _delta_h(b_hot * w2, hot.r)
    else:
        f_cold, f_hot = _delta_h(b_cold * w1, cold.r), 1.0
    # The idle side's factor is 1.0, and x * 1.0 is exactly x.
    h_a = 0.5 * w1 * c_cold * f_cold
    h_b = 0.5 * w2 * lam * c_cold * f_cold
    h_c = 0.5 * w2 * c_hot * f_hot
    h_d = 0.5 * w1 * lam * c_hot * f_hot
    q2 = h_c - h_b
    q4 = h_a - h_d
    return h_a, h_b, h_c, h_d, q2, q4, q2 + q4


def heats_work(spec):
    """Evaluate one full cycle: corner energies, heats, work, mode label.

    ``h_a`` .. ``h_d`` are the mean oscillator energies at the four corners.
    Corner A closes the cold contact at omega1, B follows the upward
    frequency stroke, C closes the hot contact at omega2, D follows the
    downward stroke.  The squeezed side's enhancement factor multiplies the
    two corners fed by that reservoir: C and D for hot-side squeezing, A and
    B for cold-side squeezing (delta_h at beta_cold*omega1, mirroring the
    hot side; its beta*omega -> 0 limit cosh 2r gives the quoted forms).
    """
    h_a, h_b, h_c, h_d, q2, q4, w_ext = _heats(spec)
    mode = _classify_mode(q2, q4, w_ext)
    eta = w_ext / q2 if mode is _ENGINE else None
    cop = q4 / -w_ext if mode is _REFRIGERATOR else None
    return CyclePerformance(h_a, h_b, h_c, h_d, q2, q4, w_ext, mode, eta, cop)


def efficiency_sudden(spec):
    """Engine efficiency w_ext / q2 of the cycle.

    Raises ModeError, naming the actual operating mode, when the spec does
    not extract positive work from positive hot-side heat.
    """
    _, _, _, _, q2, q4, w_ext = _heats(spec)
    mode = _classify_mode(q2, q4, w_ext)
    if mode is not _ENGINE:
        raise ModeError("efficiency is defined for engine operation only; "
                        "this cycle runs as a {}", mode._value_, mode=mode)
    return w_ext / q2


def effective_temperature(beta, omega, r):
    """Temperature a plain thermal bath would need to mimic a squeezed one.

    Inverts the Bose factor at the squeezed occupation
    N = n + (2n + 1) sinh^2 r, n = 1/(e^x - 1), x = beta*omega:
    T = omega / ln(1 + 1/N).  One exit per regime:

    - r = 0: exactly 1/beta.
    - x < 1e-8: the limit cosh(2r)/beta, within x^2/12, under half an ulp;
      (e^r / beta)(e^r / 2) once cosh 2r overflows (r > 355), with e^r
      formed from e^(r/2) from r = 709 on.
    - N below the smallest normal double, where 1/N overflows:
      T = omega / -ln N, with ln N taken in log space.
    - N = inf (r beyond about 345): T = omega (N + 1/2), inf only where T is.
    - otherwise the inversion itself.
    """
    beta = positive("beta", beta)
    omega = positive("omega", omega)
    r = nonnegative("r", r)
    if r == 0.0:
        return 1.0 / beta
    x = beta * omega
    if x < _X_SMALL:
        if r <= _SINH_OVERFLOW:
            return math.cosh(2.0 * r) / beta
        # e^2r / 2 is cosh 2r to the last bit here.
        if r < 709.0:
            e = math.exp(r)
            return e / beta * (0.5 * e)   # e^r / beta is a normal double
        # e^r overflows from r = 709.78 on, T (beta < DBL_MAX) only past
        # r = 710.5: until then e^r is formed from h = e^(r/2).
        h = math.exp(0.5 * r) if r < 711.0 else math.inf
        return h * (h / beta) * (0.5 * h) * h
    n = math.exp(-x) / -math.expm1(-x)   # finite: x >= 1e-8
    s = math.sinh(r) if r <= _SINH_OVERFLOW else math.inf
    N = n + (2.0 * n + 1.0) * (s * s)
    if N < _TINY:
        # ln N = ln(n + sinh^2 r), the 2n sinh^2 r term far below one ulp.
        p, q = -x - math.log1p(-math.exp(-x)), 2.0 * math.log(math.sinh(r))
        return omega / -(max(p, q) + math.log1p(math.exp(-abs(p - q))))
    if N == math.inf:
        # T = omega (N + 1/2) = omega (n + 1/2) cosh 2r to far below an ulp,
        # with n + 1/2 = coth(x/2) / 2; omega e^r is a normal double.
        if r < 709.0:
            e = math.exp(r)
            return omega * e * (0.5 * coth(0.5 * x)) * (0.5 * e)
        h = math.exp(0.5 * r) if r < 711.0 else math.inf   # as for x < 1e-8
        return omega * h * h * (0.5 * coth(0.5 * x)) * (0.5 * h) * h
    return omega / math.log1p(1.0 / N)
