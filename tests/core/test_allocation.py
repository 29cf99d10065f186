"""Tests for the Eq. 17 processing-rate allocation."""

import pytest

from repro.core import PsdController, PsdSpec, allocate_rates, expected_slowdowns
from repro.distributions import Deterministic, Exponential
from repro.errors import AllocationError, ParameterError, StabilityError
from repro.queueing.mg1 import expected_slowdown
from repro.queueing.mgb1 import theorem1_task_server_slowdown
from repro.types import TrafficClass
from tests.conftest import make_classes


class TestAllocateRates:
    def test_rates_sum_to_capacity(self, two_classes, two_class_spec):
        allocation = allocate_rates(two_classes, two_class_spec)
        assert sum(allocation.rates) == pytest.approx(1.0)

    def test_rates_cover_offered_loads(self, three_classes, three_class_spec):
        allocation = allocate_rates(three_classes, three_class_spec)
        for rate, load in zip(allocation.rates, allocation.offered_loads):
            assert rate > load

    def test_matches_eq17_closed_form(self, paper_bp):
        """r_i = rho_i + (1 - rho) * (lambda_i/delta_i) / sum_j (lambda_j/delta_j)."""
        classes = make_classes(paper_bp, 0.6, (1.0, 2.0))
        spec = PsdSpec.of(1, 2)
        allocation = allocate_rates(classes, spec)
        rho = sum(c.offered_load for c in classes)
        weights = [c.arrival_rate / d for c, d in zip(classes, spec.deltas)]
        expected = [
            c.offered_load + (1.0 - rho) * w / sum(weights)
            for c, w in zip(classes, weights)
        ]
        assert allocation.rates == pytest.approx(tuple(expected))

    def test_higher_class_gets_larger_residual_share(self, paper_bp):
        classes = make_classes(paper_bp, 0.6, (1.0, 4.0))
        allocation = allocate_rates(classes, PsdSpec.of(1, 4))
        surplus = [rate - load for rate, load in zip(allocation.rates, allocation.offered_loads)]
        # Equal arrival rates: the class with the smaller delta gets 4x the surplus.
        assert surplus[0] / surplus[1] == pytest.approx(4.0)

    def test_predicted_slowdowns_match_eq18(self, two_classes, two_class_spec):
        allocation = allocate_rates(two_classes, two_class_spec)
        assert allocation.predicted_slowdowns == pytest.approx(
            expected_slowdowns(two_classes, two_class_spec)
        )

    def test_overload_rejected(self, moderate_bp):
        lam = 1.05 / moderate_bp.mean()
        classes = [TrafficClass("c", lam, moderate_bp, 1.0)]
        with pytest.raises(StabilityError):
            allocate_rates(classes, PsdSpec.of(1))

    def test_length_mismatch_rejected(self, two_classes):
        with pytest.raises(AllocationError):
            allocate_rates(two_classes, PsdSpec.of(1, 2, 3))

    def test_zero_traffic_class_gets_zero_rate_without_floor(self, moderate_bp):
        classes = (
            TrafficClass("busy", 0.5 / moderate_bp.mean(), moderate_bp, 1.0),
            TrafficClass("idle", 0.0, moderate_bp, 2.0),
        )
        allocation = allocate_rates(classes, PsdSpec.of(1, 2))
        assert allocation.rates[1] == pytest.approx(0.0)
        assert sum(allocation.rates) == pytest.approx(1.0)

    def test_min_rate_floor_keeps_feasibility(self, moderate_bp):
        classes = (
            TrafficClass("busy", 0.5 / moderate_bp.mean(), moderate_bp, 1.0),
            TrafficClass("idle", 0.0, moderate_bp, 2.0),
        )
        allocation = allocate_rates(classes, PsdSpec.of(1, 2), min_rate=0.05)
        assert allocation.rates[1] == pytest.approx(0.05)
        assert sum(allocation.rates) == pytest.approx(1.0)
        assert allocation.rates[0] > classes[0].offered_load

    def test_min_rate_infeasible_floor_rejected(self, moderate_bp):
        # One class carries 95% load, the other is idle: a 10% floor for the
        # idle class cannot be paid for without destabilising the busy one.
        classes = (
            TrafficClass("busy", 0.95 / moderate_bp.mean(), moderate_bp, 1.0),
            TrafficClass("idle", 0.0, moderate_bp, 2.0),
        )
        with pytest.raises(AllocationError):
            allocate_rates(classes, PsdSpec.of(1, 2), min_rate=0.1)

    def test_all_idle_classes_split_evenly(self, moderate_bp):
        classes = (
            TrafficClass("a", 0.0, moderate_bp, 1.0),
            TrafficClass("b", 0.0, moderate_bp, 2.0),
        )
        allocation = allocate_rates(classes, PsdSpec.of(1, 2))
        assert allocation.rates == (pytest.approx(0.5), pytest.approx(0.5))

    def test_custom_capacity(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        allocation = allocate_rates(classes, PsdSpec.of(1, 2), capacity=2.0)
        assert sum(allocation.rates) == pytest.approx(2.0)
        for rate, load in zip(allocation.rates, allocation.offered_loads):
            assert rate > load

    def test_invalid_capacity_or_floor(self, two_classes, two_class_spec):
        with pytest.raises(ParameterError):
            allocate_rates(two_classes, two_class_spec, capacity=0.0)
        with pytest.raises(ParameterError):
            allocate_rates(two_classes, two_class_spec, min_rate=-0.1)

    def test_allocation_result_accessors(self, two_classes, two_class_spec):
        allocation = allocate_rates(two_classes, two_class_spec)
        assert allocation.residual_capacity == pytest.approx(1.0 - allocation.total_load)
        for util in allocation.per_class_utilisations:
            assert 0.0 < util < 1.0
        as_dict = allocation.as_dict()
        assert set(as_dict) == {
            "rates",
            "offered_loads",
            "total_load",
            "predicted_slowdowns",
        }


class TestTheorem1Oracle:
    """Plug the Eq. 17 rates into the queueing results of Theorem 1.

    The slowdowns come from :mod:`repro.queueing`, which shares no code
    with the allocation, and must sit in the spec's delta ratios.
    """

    def test_bounded_pareto_task_servers_meet_the_ratios(self, two_classes, two_class_spec):
        allocation = allocate_rates(two_classes, two_class_spec)
        slowdowns = [
            theorem1_task_server_slowdown(cls.arrival_rate, cls.service, rate)
            for cls, rate in zip(two_classes, allocation.rates)
        ]
        assert slowdowns[1] / slowdowns[0] == pytest.approx(2.0)
        assert tuple(slowdowns) == pytest.approx(allocation.predicted_slowdowns)

    def test_generic_mg1_task_servers_meet_the_ratios(self):
        service = Deterministic(1.0)
        classes = (
            TrafficClass("a", 0.3, service, 1.0),
            TrafficClass("b", 0.3, service, 2.0),
        )
        allocation = allocate_rates(classes, PsdSpec.of(1, 2))
        slowdowns = [
            expected_slowdown(cls.arrival_rate, cls.service, rate=rate)
            for cls, rate in zip(classes, allocation.rates)
        ]
        assert slowdowns[1] / slowdowns[0] == pytest.approx(2.0)
        assert tuple(slowdowns) == pytest.approx(allocation.predicted_slowdowns)


class TestInfiniteSlowdownConstant:
    """An unbounded exponential has E[1/X] = inf, so C_i does not exist."""

    @pytest.fixture
    def classes(self):
        service = Exponential(1.0)
        return (
            TrafficClass("a", 0.3, service, 1.0),
            TrafficClass("b", 0.3, service, 2.0),
        )

    def test_allocate_rates_raises_parameter_error(self, classes):
        with pytest.raises(ParameterError, match="E\\[1/X\\]"):
            allocate_rates(classes, PsdSpec.of(1, 2))

    def test_controller_raises_parameter_error_at_construction(self, classes):
        with pytest.raises(ParameterError, match="E\\[1/X\\]"):
            PsdController(classes, PsdSpec.of(1, 2))
