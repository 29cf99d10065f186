"""Tests for the windowed, smoothing and oracle load estimators."""

import math

import numpy as np
import pytest

from repro.core import (
    ExponentialSmoothingEstimator,
    OracleLoadEstimator,
    WindowedLoadEstimator,
)
from repro.errors import ParameterError


class TestWindowedLoadEstimator:
    def test_prior_used_before_any_window(self):
        est = WindowedLoadEstimator(
            2, prior_arrival_rates=[1.0, 2.0], prior_offered_loads=[0.3, 0.4]
        )
        estimate = est.estimate()
        assert estimate.arrival_rates == (1.0, 2.0)
        assert estimate.offered_loads == (0.3, 0.4)
        assert estimate.total_load == pytest.approx(0.7)

    def test_zero_prior_by_default(self):
        est = WindowedLoadEstimator(3)
        assert est.estimate().arrival_rates == (0.0, 0.0, 0.0)

    def test_single_window_estimate(self):
        est = WindowedLoadEstimator(2)
        est.observe_window(100.0, arrivals=[50, 10], work=[25.0, 30.0])
        estimate = est.estimate()
        assert estimate.arrival_rates == (pytest.approx(0.5), pytest.approx(0.1))
        assert estimate.offered_loads == (pytest.approx(0.25), pytest.approx(0.3))

    def test_average_over_history_matches_paper_protocol(self):
        """Estimate for the next window = mean of the last `history` windows."""
        est = WindowedLoadEstimator(1, history=5)
        for arrivals in (100, 120, 80, 100, 100):
            est.observe_window(1000.0, arrivals=[arrivals], work=[arrivals * 0.3])
        estimate = est.estimate()
        assert estimate.arrival_rates[0] == pytest.approx(0.1)
        assert estimate.offered_loads[0] == pytest.approx(0.03)
        assert est.windows_observed == 5

    def test_history_window_is_sliding(self):
        est = WindowedLoadEstimator(1, history=2)
        est.observe_window(10.0, [10], [1.0])
        est.observe_window(10.0, [20], [2.0])
        est.observe_window(10.0, [40], [4.0])  # evicts the first window
        estimate = est.estimate()
        assert estimate.arrival_rates[0] == pytest.approx(3.0)
        assert est.windows_observed == 2

    def test_rejects_bad_observations(self):
        est = WindowedLoadEstimator(2)
        with pytest.raises(ParameterError):
            est.observe_window(0.0, [1, 1], [0.1, 0.1])
        with pytest.raises(ParameterError):
            est.observe_window(10.0, [1], [0.1, 0.1])
        with pytest.raises(ParameterError):
            est.observe_window(10.0, [-1, 1], [0.1, 0.1])
        with pytest.raises(ParameterError):
            est.observe_window(10.0, [1, 1], [-0.1, 0.1])

    def test_rejects_bad_construction(self):
        with pytest.raises(ParameterError):
            WindowedLoadEstimator(0)
        with pytest.raises(ParameterError):
            WindowedLoadEstimator(2, history=0)
        with pytest.raises(ParameterError):
            WindowedLoadEstimator(2, prior_arrival_rates=[1.0])


class TestExponentialSmoothingEstimator:
    def test_first_observation_taken_as_is(self):
        est = ExponentialSmoothingEstimator(1, smoothing=0.5)
        est.observe_window(10.0, [20], [5.0])
        assert est.estimate().arrival_rates[0] == pytest.approx(2.0)

    def test_smoothing_blends_old_and_new(self):
        est = ExponentialSmoothingEstimator(1, smoothing=0.5)
        est.observe_window(10.0, [20], [5.0])   # rate 2.0
        est.observe_window(10.0, [40], [10.0])  # rate 4.0
        assert est.estimate().arrival_rates[0] == pytest.approx(3.0)

    def test_empty_estimate_is_zero(self):
        est = ExponentialSmoothingEstimator(2)
        assert est.estimate().arrival_rates == (0.0, 0.0)

    def test_smoothing_bounds(self):
        with pytest.raises(ParameterError):
            ExponentialSmoothingEstimator(1, smoothing=0.0)
        with pytest.raises(ParameterError):
            ExponentialSmoothingEstimator(1, smoothing=1.5)


class TestOracleLoadEstimator:
    def test_always_returns_truth(self):
        oracle = OracleLoadEstimator([1.0, 2.0], [0.2, 0.3])
        oracle.observe_window(10.0, [100, 5], [9.0, 0.1])
        estimate = oracle.estimate()
        assert estimate.arrival_rates == (1.0, 2.0)
        assert estimate.offered_loads == (0.2, 0.3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            OracleLoadEstimator([1.0], [0.2, 0.3])


def _estimators():
    return (
        WindowedLoadEstimator(2),
        ExponentialSmoothingEstimator(2),
        OracleLoadEstimator([1.0, 2.0], [0.2, 0.3]),
    )


class TestObservationValidation:
    """Every estimator rejects an observation a real window cannot produce."""

    @pytest.mark.parametrize("estimator", _estimators(), ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_non_finite_or_negative_work(self, estimator, bad):
        with pytest.raises(ParameterError, match=r"work\[1\]"):
            estimator.observe_window(10.0, [1, 1], [0.1, bad])

    @pytest.mark.parametrize("estimator", _estimators(), ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("bad", [-1, 2.5, math.nan, math.inf])
    def test_rejects_negative_fractional_or_non_finite_arrivals(self, estimator, bad):
        with pytest.raises(ParameterError, match=r"arrivals\[0\]"):
            estimator.observe_window(10.0, [bad, 1], [0.1, 0.1])

    @pytest.mark.parametrize("estimator", _estimators(), ids=lambda e: type(e).__name__)
    def test_rejected_window_leaves_the_estimate_alone(self, estimator):
        before = estimator.estimate()
        with pytest.raises(ParameterError):
            estimator.observe_window(10.0, [1, 1], [math.nan, 0.1])
        assert estimator.estimate() == before

    @pytest.mark.parametrize("estimator", _estimators(), ids=lambda e: type(e).__name__)
    def test_accepts_whole_float_and_numpy_counts(self, estimator):
        estimator.observe_window(10.0, [3.0, np.int64(4)], [np.float64(0.5), 0.0])


class TestHistoryValidation:
    @pytest.mark.parametrize("history", [0, 0.5, 2.7, -1, math.nan, math.inf])
    def test_rejects_non_count_history(self, history):
        with pytest.raises(ParameterError, match="history"):
            WindowedLoadEstimator(2, history=history)

    def test_whole_float_history_is_accepted(self):
        assert WindowedLoadEstimator(2, history=3.0).history == 3
