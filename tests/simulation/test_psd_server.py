"""Tests for the full PSD server simulation (Fig. 1 model)."""

import math

import pytest

from repro.core import PsdSpec, allocate_rates, expected_slowdowns
from repro.distributions import Deterministic
from repro.errors import SimulationError
from repro.queueing import md1_expected_slowdown
from repro.simulation import MeasurementConfig, Scenario, StaticRateController
from repro.types import TrafficClass
from tests.conftest import make_classes

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


class TestBasicRuns:
    def test_request_counts_roughly_match_rates(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=2_000.0, window=200.0)
        result = Scenario(classes, cfg, seed=1).run()
        for cls, generated in zip(classes, result.generated_counts):
            expected = cls.arrival_rate * cfg.horizon
            assert generated == pytest.approx(expected, rel=0.2)
        # Nearly everything completes under moderate load.
        for generated, completed in zip(result.generated_counts, result.completed_counts):
            assert completed <= generated
            assert completed >= 0.9 * generated

    def test_reproducible_with_same_seed(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=1_000.0, window=200.0)
        a = Scenario(classes, cfg, seed=7).run()
        b = Scenario(classes, cfg, seed=7).run()
        assert a.generated_counts == b.generated_counts
        assert a.per_class_mean_slowdowns() == pytest.approx(b.per_class_mean_slowdowns())

    def test_different_seeds_differ(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=1_000.0, window=200.0)
        a = Scenario(classes, cfg, seed=1).run()
        b = Scenario(classes, cfg, seed=2).run()
        assert a.generated_counts != b.generated_counts

    def test_rate_history_recorded_every_window(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=1_000.0, window=100.0)
        result = Scenario(classes, cfg, seed=3).run()
        # Initial rates + one entry per completed window boundary.
        assert len(result.rate_history) == 1 + 10
        for _, rates in result.rate_history:
            assert sum(rates) == pytest.approx(1.0)

    def test_requires_classes(self, short_measurement):
        with pytest.raises(SimulationError):
            Scenario([], short_measurement)

    def test_controller_class_mismatch_rejected(self, moderate_bp, short_measurement):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        with pytest.raises(SimulationError):
            Scenario(classes, short_measurement, controller=StaticRateController([1.0]))


class TestAgainstClosedForms:
    def test_md1_single_class_matches_eq15(self):
        service = Deterministic(1.0)
        classes = (TrafficClass("only", 0.7, service, 1.0),)
        cfg = MeasurementConfig(warmup=2_000.0, horizon=20_000.0, window=1_000.0)
        result = Scenario(classes, cfg, seed=11).run()
        simulated = result.per_class_mean_slowdowns()[0]
        assert simulated == pytest.approx(md1_expected_slowdown(0.7, 1.0), rel=0.1)

    def test_two_class_slowdowns_near_eq18(self, moderate_bp):
        from repro.simulation import run_replications

        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        spec = PsdSpec.of(1, 2)
        cfg = MeasurementConfig(
            warmup=2_000.0, horizon=20_000.0, window=1_000.0
        ).scaled_to_time_units(moderate_bp.mean())

        def build(_, seed):
            return Scenario(classes, cfg, spec=spec, seed=seed).run()

        summary = run_replications(build, replications=4, base_seed=5)
        simulated = summary.mean_slowdowns
        expected = expected_slowdowns(classes, spec)
        for sim, exp in zip(simulated, expected):
            assert sim == pytest.approx(exp, rel=0.3)
        # The achieved ratio of replication-averaged slowdowns is tighter
        # than the absolute values.
        assert summary.ratio_of_mean_slowdowns[1] == pytest.approx(2.0, rel=0.2)

    def test_static_true_rate_controller_matches_theory(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        spec = PsdSpec.of(1, 2)
        rates = allocate_rates(classes, spec).rates
        cfg = MeasurementConfig(
            warmup=2_000.0, horizon=20_000.0, window=1_000.0
        ).scaled_to_time_units(moderate_bp.mean())
        result = Scenario(
            classes, cfg, controller=StaticRateController(rates), seed=9
        ).run()
        expected = expected_slowdowns(classes, spec)
        for sim, exp in zip(result.per_class_mean_slowdowns(), expected):
            assert sim == pytest.approx(exp, rel=0.35)

    def test_higher_class_has_smaller_slowdown(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.7, (1.0, 4.0))
        cfg = MeasurementConfig(
            warmup=1_000.0, horizon=10_000.0, window=500.0
        ).scaled_to_time_units(moderate_bp.mean())
        result = Scenario(classes, cfg, spec=PsdSpec.of(1, 4), seed=13).run()
        slowdowns = result.per_class_mean_slowdowns()
        assert slowdowns[0] < slowdowns[1]


class TestStaticRateController:
    def test_rates_never_change(self):
        controller = StaticRateController([0.6, 0.4])
        controller.observe_window(1.0, 1.0, [1, 1], [0.1, 0.1])
        assert controller.current_rates == (0.6, 0.4)
        assert controller.observations == 1

    def test_rejects_bad_rates(self):
        with pytest.raises(SimulationError):
            StaticRateController([])
        with pytest.raises(SimulationError):
            StaticRateController([-0.1, 1.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rates_at_construction(self, bad):
        with pytest.raises(SimulationError, match=r"rates\[1\] must be finite"):
            StaticRateController([0.5, bad])


class TestSimulationResultAccessors:
    def test_summary_accessors(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=3_000.0, window=200.0)
        result = Scenario(classes, cfg, seed=21).run()
        slowdowns = result.per_class_mean_slowdowns()
        ratios = result.slowdown_ratios_to_first()
        assert ratios[0] == pytest.approx(1.0)
        assert ratios[1] == pytest.approx(slowdowns[1] / slowdowns[0])
        waits = result.per_class_mean_waiting_times()
        assert all(w >= 0 for w in waits)
        assert result.system_mean_slowdown() > 0
        assert result.measured_ids().size > 0
