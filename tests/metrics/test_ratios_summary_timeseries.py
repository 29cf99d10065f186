"""Tests for ratio comparisons and sweep summaries."""

import math

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.errors import ParameterError
from repro.metrics import (
    RatioComparison,
    achieved_ratios,
    compare_simulated_expected,
    compare_to_targets,
    ratio_series_to_first,
    sweep_table_rows,
)


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


class TestRatioSeries:
    def test_aligned_series(self):
        first = np.asarray([1.0, 2.0, np.nan, 4.0])
        second = np.asarray([2.0, 4.0, 6.0, np.nan])
        ratios = ratio_series_to_first([first, second], 1)
        np.testing.assert_allclose(ratios, [2.0, 2.0])

    def test_requires_non_reference_class(self):
        with pytest.raises(ParameterError):
            ratio_series_to_first([np.asarray([1.0])], 0)


class TestSimulatedVsExpected:
    def test_relative_errors_and_rows(self):
        point = compare_simulated_expected(0.5, [1.0, 2.2], [1.0, 2.0])
        assert point.relative_errors[1] == pytest.approx(0.1)
        assert point.worst_relative_error == pytest.approx(0.1)
        row = point.as_row()
        assert row["parameter"] == 0.5
        assert row["simulated_2"] == pytest.approx(2.2)

    def test_nan_handling(self):
        point = compare_simulated_expected(0.5, [float("nan")], [1.0])
        assert math.isnan(point.worst_relative_error)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            compare_simulated_expected(0.5, [1.0], [1.0, 2.0])

    def test_sweep_table_rows_with_spec(self):
        spec = PsdSpec.of(1, 2)
        points = [
            compare_simulated_expected(0.3, [1.0, 2.0], [1.0, 2.0]),
            compare_simulated_expected(0.6, [2.0, 4.4], [2.0, 4.0]),
        ]
        rows = sweep_table_rows(points, spec)
        assert len(rows) == 2
        assert rows[0]["achieved_ratio_last"] == pytest.approx(2.0)
        assert rows[1]["ratio_rel_error"] == pytest.approx(0.1)
