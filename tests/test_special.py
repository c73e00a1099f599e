import math

import pytest

from ottobounds.errors import DomainError
from ottobounds.special import coth, sech


def test_coth_matches_naive_ratio_at_moderate_arguments():
    for x in (0.05, 0.3, 1.0, 2.5, 7.0, 20.0):
        assert math.isclose(coth(x), math.cosh(x) / math.sinh(x), rel_tol=1e-14)


def test_coth_small_argument_expansion():
    # coth(x) = 1/x + x/3 + O(x^3); the naive ratio loses nothing here but
    # the expm1 form must not either.
    x = 1e-8
    assert math.isclose(coth(x), 1.0 / x + x / 3.0, rel_tol=1e-12)


def test_coth_never_overflows():
    # cosh/sinh overflow past x ~ 355; this form saturates to 1 instead.
    assert coth(20.0) == 1.0  # true value is 1 + 8.5e-18, below 1 ulp
    assert coth(400.0) == 1.0
    assert coth(1e6) == 1.0


def test_coth_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            coth(bad)


def test_sech_values_and_evenness():
    assert sech(0.0) == 1.0
    assert sech(-3.0) == sech(3.0)


def test_sech_underflows_gracefully():
    assert sech(800.0) == 0.0
    assert sech(400.0) > 0.0
