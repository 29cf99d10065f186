"""Tests for achieved-ratio comparisons."""

import pytest

from repro.core import PsdSpec
from repro.errors import ParameterError
from repro.metrics import RatioComparison, achieved_ratios, compare_to_targets


class TestAchievedRatios:
    def test_reference_is_one(self):
        ratios = achieved_ratios([2.0, 4.0, 8.0])
        assert ratios == (1.0, 2.0, 4.0)

    def test_custom_reference(self):
        ratios = achieved_ratios([2.0, 4.0], reference=1)
        assert ratios == (0.5, 1.0)

    def test_invalid_reference_value(self):
        with pytest.raises(ParameterError):
            achieved_ratios([0.0, 1.0])
        with pytest.raises(ParameterError):
            achieved_ratios([])


class TestRatioComparison:
    def test_compare_to_targets(self):
        spec = PsdSpec.of(1, 2, 4)
        comparison = compare_to_targets([3.0, 6.3, 11.0], spec)
        assert comparison.targets == (1.0, 2.0, 4.0)
        assert comparison.achieved[1] == pytest.approx(2.1)
        assert comparison.relative_errors[1] == pytest.approx(0.05)
        assert comparison.worst_relative_error == pytest.approx(abs(11.0 / 3.0 / 4.0 - 1.0))
        assert comparison.predictable

    def test_predictability_detects_inversion(self):
        comparison = RatioComparison(targets=(1.0, 2.0), achieved=(1.0, 0.8))
        assert not comparison.predictable

    def test_zero_target_rejected(self):
        comparison = RatioComparison(targets=(1.0, 0.0), achieved=(1.0, 1.0))
        with pytest.raises(ParameterError):
            _ = comparison.relative_errors

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            compare_to_targets([1.0, 2.0], PsdSpec.of(1, 2, 3))
