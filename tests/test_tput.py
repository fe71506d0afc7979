"""Tests for TPUT's k-th largest threshold (repro.topk.tput)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.topk.tput import kth_largest


class TestKthLargest:
    def test_basic(self):
        assert kth_largest([5.0, 1.0, 3.0], 2) == 3.0

    def test_fewer_values_than_k(self):
        assert kth_largest([5.0], 3) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            kth_largest([1.0], 0)
