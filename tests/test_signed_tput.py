"""Tests for the signed-TPUT magnitude bound (repro.topk.signed_tput)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.topk.signed_tput import magnitude_lower_bound


class TestMagnitudeLowerBound:
    def test_same_sign_bounds(self):
        assert magnitude_lower_bound(10.0, 4.0) == 4.0
        assert magnitude_lower_bound(-4.0, -10.0) == 4.0

    def test_straddling_zero_gives_zero(self):
        assert magnitude_lower_bound(5.0, -3.0) == 0.0

    def test_tiny_floating_point_inversion_is_tolerated(self):
        value = 1307.6172151092228
        assert magnitude_lower_bound(value, value + 2e-13) == pytest.approx(value)

    def test_real_inversion_raises(self):
        with pytest.raises(InvalidParameterError):
            magnitude_lower_bound(1.0, 2.0)
