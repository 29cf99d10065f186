"""Tests for the generic M/G/1 Pollaczek–Khinchin machinery."""

import math

import pytest

from repro.distributions import BoundedPareto, Deterministic, Exponential
from repro.errors import ParameterError, StabilityError
from repro.queueing import (
    MG1Queue,
    expected_response_time,
    expected_slowdown,
    expected_waiting_time,
)


class TestWaitingTime:
    def test_md1_special_case(self):
        # M/D/1: E[W] = rho * d / (2 (1 - rho))
        d = 1.0
        lam = 0.5
        rho = lam * d
        expected = rho * d / (2.0 * (1.0 - rho))
        assert expected_waiting_time(lam, Deterministic(d)) == pytest.approx(expected)

    def test_mm1_special_case(self):
        # M/M/1: E[W] = rho / (mu - lambda)
        mean = 1.0
        lam = 0.6
        expected = 0.6 / (1.0 - 0.6)
        assert expected_waiting_time(lam, Exponential(mean)) == pytest.approx(expected)

    def test_zero_arrivals_zero_wait(self):
        assert expected_waiting_time(0.0, Exponential(1.0)) == 0.0

    def test_unstable_queue_raises(self):
        with pytest.raises(StabilityError):
            expected_waiting_time(1.1, Deterministic(1.0))
        with pytest.raises(StabilityError):
            expected_waiting_time(1.0, Deterministic(1.0))

    def test_rate_scaling_equivalent_to_slower_jobs(self):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        lam = 0.3
        direct = expected_waiting_time(lam, bp, rate=0.5)
        stretched = expected_waiting_time(lam, bp.scaled(0.5), rate=1.0)
        assert direct == pytest.approx(stretched)

    def test_waiting_time_increases_with_load(self):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        waits = [expected_waiting_time(lam, bp) for lam in (0.2, 0.6, 1.0, 1.4)]
        assert waits == sorted(waits)
        assert all(w >= 0.0 for w in waits)

    def test_waiting_time_increases_with_variability(self):
        # Same mean, higher variance -> longer waits (P-K formula).
        lam = 0.5
        high_var = BoundedPareto(0.5, 5.0, 1.5)
        low_var = Deterministic(high_var.mean())
        assert expected_waiting_time(lam, high_var) > expected_waiting_time(lam, low_var)


class TestSlowdownAndResponse:
    def test_slowdown_is_wait_times_mean_inverse(self):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        lam = 0.7
        assert expected_slowdown(lam, bp) == pytest.approx(
            expected_waiting_time(lam, bp) * bp.mean_inverse()
        )

    def test_slowdown_infinite_for_unbounded_exponential(self):
        assert math.isinf(expected_slowdown(0.5, Exponential(1.0)))

    def test_slowdown_zero_when_idle(self):
        assert expected_slowdown(0.0, Exponential(1.0)) == 0.0

    def test_response_time_adds_service_mean(self):
        bp = BoundedPareto(0.5, 1.5, 2.0)
        lam = 0.4
        assert expected_response_time(lam, bp) == pytest.approx(
            expected_waiting_time(lam, bp) + bp.mean()
        )

    def test_response_time_with_rate_uses_scaled_mean(self):
        bp = BoundedPareto(0.5, 1.5, 2.0)
        lam = 0.2
        rate = 0.5
        assert expected_response_time(lam, bp, rate=rate) == pytest.approx(
            expected_waiting_time(lam, bp, rate=rate) + bp.mean() / rate
        )


class TestMG1QueueObject:
    def test_describe_keys(self):
        q = MG1Queue(0.5, BoundedPareto(0.5, 1.5, 2.0))
        d = q.describe()
        assert set(d) == {
            "utilisation",
            "waiting_time",
            "response_time",
            "slowdown",
            "queue_length",
            "number_in_system",
        }

    def test_littles_law_consistency(self):
        q = MG1Queue(0.5, BoundedPareto(0.5, 1.5, 2.0))
        assert q.mean_queue_length() == pytest.approx(q.arrival_rate * q.waiting_time())
        assert q.mean_number_in_system() == pytest.approx(q.arrival_rate * q.response_time())

    def test_stability_flags(self):
        stable = MG1Queue(0.5, Deterministic(1.0))
        unstable = MG1Queue(1.5, Deterministic(1.0))
        assert stable.is_stable and not unstable.is_stable
        stable.require_stable()
        with pytest.raises(StabilityError):
            unstable.require_stable()

    def test_scaled_service_property(self):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        q = MG1Queue(0.2, bp, rate=0.25)
        assert q.scaled_service.mean() == pytest.approx(bp.mean() / 0.25)
        assert q.utilisation == pytest.approx(0.2 * bp.mean() / 0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            MG1Queue(-0.1, Deterministic(1.0))
        with pytest.raises(ParameterError):
            MG1Queue(0.1, Deterministic(1.0), rate=0.0)
