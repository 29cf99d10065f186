"""Tests for the workload factories (web, e-commerce)."""

import pytest

from repro.distributions import BoundedPareto, Deterministic, Hyperexponential
from repro.errors import ParameterError
from repro.queueing import md1_expected_slowdown
from repro.types import TrafficClass, scale_arrival_rates, total_offered_load
from repro.workload import (
    SessionProfile,
    SessionState,
    ecommerce_classes,
    paper_service_distribution,
    web_classes,
    web_classes_with_shares,
)


class TestWebClasses:
    def test_paper_distribution(self):
        bp = paper_service_distribution()
        assert (bp.k, bp.p, bp.alpha) == (0.1, 100.0, 1.5)

    def test_equal_loads_sum_to_system_load(self):
        classes = web_classes(3, 0.75, (1.0, 2.0, 3.0))
        assert total_offered_load(classes) == pytest.approx(0.75)
        loads = [c.offered_load for c in classes]
        assert loads[0] == pytest.approx(loads[1]) == pytest.approx(loads[2])
        assert [c.delta for c in classes] == [1.0, 2.0, 3.0]

    def test_custom_shares(self):
        classes = web_classes_with_shares((0.7, 0.3), 0.5, (1.0, 2.0))
        assert classes[0].offered_load == pytest.approx(0.35)
        assert classes[1].offered_load == pytest.approx(0.15)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            web_classes_with_shares((0.7, 0.7), 0.5, (1.0, 2.0))

    def test_load_must_be_feasible(self):
        with pytest.raises(ParameterError):
            web_classes(2, 1.0, (1.0, 2.0))
        with pytest.raises(ParameterError):
            web_classes(2, 0.0, (1.0, 2.0))

    def test_deltas_length_checked(self):
        with pytest.raises(ParameterError):
            web_classes(2, 0.5, (1.0,))

    def test_custom_service_distribution(self):
        service = BoundedPareto(0.1, 10.0, 1.8)
        classes = web_classes(2, 0.6, (1.0, 2.0), service=service)
        assert classes[0].service is service
        assert total_offered_load(classes) == pytest.approx(0.6)


class TestSessionWorkload:
    def test_default_profile_is_deterministic_service(self):
        profile = SessionProfile()
        assert isinstance(profile.service_distribution(), Deterministic)
        assert profile.mean_service_time == pytest.approx(1.0)

    def test_mixed_state_times_give_mixture(self):
        profile = SessionProfile(
            states=(
                SessionState("fast", 0.5, 0.5),
                SessionState("slow", 2.0, 0.5),
            )
        )
        dist = profile.service_distribution()
        assert isinstance(dist, Hyperexponential)
        assert dist.mean() == pytest.approx(profile.mean_service_time)

    def test_visit_probabilities_validated(self):
        with pytest.raises(ParameterError):
            SessionProfile(states=(SessionState("a", 1.0, 0.5),))

    def test_md1_slowdown_helper(self):
        profile = SessionProfile()
        assert profile.expected_md1_slowdown(0.6) == pytest.approx(md1_expected_slowdown(0.6, 1.0))

    def test_ecommerce_classes(self):
        classes = ecommerce_classes(0.6, (1.0, 2.0, 4.0))
        assert len(classes) == 3
        assert total_offered_load(classes) == pytest.approx(0.6)
        assert all(isinstance(c.service, Deterministic) for c in classes)

    def test_ecommerce_requires_feasible_load(self):
        with pytest.raises(ParameterError):
            ecommerce_classes(1.2, (1.0, 2.0))
        with pytest.raises(ParameterError):
            ecommerce_classes(0.5, ())


class TestTrafficClassHelpers:
    def test_scale_arrival_rates(self, moderate_bp):
        classes = web_classes(2, 0.4, (1.0, 2.0), service=moderate_bp)
        doubled = scale_arrival_rates(classes, 2.0)
        assert total_offered_load(doubled) == pytest.approx(0.8)

    def test_traffic_class_validation(self, moderate_bp):
        with pytest.raises(ParameterError):
            TrafficClass("", 1.0, moderate_bp, 1.0)
        with pytest.raises(ParameterError):
            TrafficClass("x", -1.0, moderate_bp, 1.0)
        with pytest.raises(ParameterError):
            TrafficClass("x", 1.0, moderate_bp, 0.0)
        with pytest.raises(ParameterError):
            TrafficClass("x", 1.0, "not a distribution", 1.0)  # type: ignore[arg-type]

    def test_with_helpers(self, moderate_bp):
        cls = TrafficClass("x", 1.0, moderate_bp, 1.0)
        assert cls.with_arrival_rate(2.0).arrival_rate == 2.0
        assert cls.with_delta(3.0).delta == 3.0
        assert cls.offered_load == pytest.approx(moderate_bp.mean())

    def test_total_offered_load_requires_classes(self):
        with pytest.raises(ParameterError):
            total_offered_load(())
