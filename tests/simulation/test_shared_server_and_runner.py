"""Tests for the shared-processor simulation and the replication runner."""

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.distributions import Deterministic
from repro.errors import SimulationError
from repro.queueing import md1_expected_slowdown
from repro.scheduling import (
    LotteryScheduler,
    StrictPriorityScheduler,
    WeightedFairQueueing,
)
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    ReplicatedStatistic,
    ReplicationSummary,
    Scenario,
    SharedProcessorServer,
    run_replications,
    summarise_replications,
)
from repro.types import TrafficClass
from tests.conftest import make_classes

pytestmark = pytest.mark.usefixtures("checked_runs")


class TestSharedProcessorSimulation:
    def test_single_class_wfq_matches_md1(self):
        service = Deterministic(1.0)
        classes = (TrafficClass("only", 0.7, service, 1.0),)
        cfg = MeasurementConfig(warmup=2_000.0, horizon=20_000.0, window=1_000.0)
        sim = Scenario(classes, cfg, server=SharedProcessorServer(WeightedFairQueueing(1)), seed=3)
        result = sim.run()
        assert result.per_class_mean_slowdowns()[0] == pytest.approx(
            md1_expected_slowdown(0.7, 1.0), rel=0.1
        )

    def test_wfq_differentiates_classes(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.7, (1.0, 3.0))
        spec = PsdSpec.of(1, 3)
        cfg = MeasurementConfig(
            warmup=1_000.0, horizon=12_000.0, window=1_000.0
        ).scaled_to_time_units(moderate_bp.mean())
        sim = Scenario(
            classes, cfg, server=SharedProcessorServer(WeightedFairQueueing(2)), spec=spec, seed=17
        )
        result = sim.run()
        slowdowns = result.per_class_mean_slowdowns()
        assert slowdowns[0] < slowdowns[1]

    def test_lottery_scheduler_runs(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=500.0, horizon=4_000.0, window=500.0)
        scheduler = LotteryScheduler(2, rng=np.random.default_rng(4))
        result = Scenario(classes, cfg, server=SharedProcessorServer(scheduler), seed=4).run()
        assert sum(result.completed_counts) > 0

    def test_strict_priority_starves_low_class_under_high_load(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.9, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=500.0, horizon=6_000.0, window=500.0)
        server = SharedProcessorServer(StrictPriorityScheduler(2))
        result = Scenario(classes, cfg, server=server, seed=6).run()
        slowdowns = result.per_class_mean_slowdowns()
        # Strict priority gives the high class near-zero queueing but cannot
        # control the spacing: the ratio is far larger than any target.
        assert slowdowns[1] / slowdowns[0] > 5.0

    def test_scheduler_class_count_mismatch(self, moderate_bp, short_measurement):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        with pytest.raises(SimulationError):
            server = SharedProcessorServer(WeightedFairQueueing(3))
            Scenario(classes, short_measurement, server=server)

    def test_rates_pushed_into_scheduler_weights(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=500.0, horizon=3_000.0, window=500.0)
        scheduler = WeightedFairQueueing(2)
        sim = Scenario(classes, cfg, server=SharedProcessorServer(scheduler), seed=8)
        result = sim.run()
        # After the run the scheduler's weights equal the last allocated rates.
        last_rates = result.rate_history[-1][1]
        assert scheduler.weights == pytest.approx(last_rates)

    def test_shared_and_dedicated_models_agree_on_ordering(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        spec = PsdSpec.of(1, 2)
        cfg = MeasurementConfig(
            warmup=1_000.0, horizon=10_000.0, window=1_000.0
        ).scaled_to_time_units(moderate_bp.mean())
        dedicated = Scenario(classes, cfg, server=RateScalableServers(), spec=spec, seed=23).run()
        shared = Scenario(
            classes, cfg, server=SharedProcessorServer(WeightedFairQueueing(2)), spec=spec, seed=23
        ).run()
        assert dedicated.per_class_mean_slowdowns()[0] < dedicated.per_class_mean_slowdowns()[1]
        assert shared.per_class_mean_slowdowns()[0] < shared.per_class_mean_slowdowns()[1]


class TestReplicationRunner:
    def build(self, classes, cfg):
        def _build(i, seed):
            return Scenario(classes, cfg, server=RateScalableServers(), seed=seed).run()

        return _build

    def test_summary_structure(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        summary = run_replications(self.build(classes, cfg), replications=3, base_seed=1)
        assert len(summary.results) == 3
        assert len(summary.per_class_slowdowns) == 2
        assert summary.per_class_slowdowns[0].n == 3
        assert summary.ratios_to_first[0].mean == pytest.approx(1.0)
        assert summary.mean_slowdowns[0] > 0
        assert summary.ratio_of_mean_slowdowns[0] == pytest.approx(1.0)

    def test_replications_are_independent_but_reproducible(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        a = run_replications(self.build(classes, cfg), replications=2, base_seed=5)
        b = run_replications(self.build(classes, cfg), replications=2, base_seed=5)
        assert a.mean_slowdowns == pytest.approx(b.mean_slowdowns)
        counts = [r.generated_counts for r in a.results]
        assert counts[0] != counts[1]

    def test_confidence_interval_shrinks_with_more_replications(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0,))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        few = run_replications(self.build(classes, cfg), replications=3, base_seed=2)
        many = run_replications(self.build(classes, cfg), replications=10, base_seed=2)
        assert (
            many.per_class_slowdowns[0].half_width_95
            < few.per_class_slowdowns[0].half_width_95 * 1.5
        )

    def test_invalid_replication_count(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0,))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        with pytest.raises(SimulationError):
            run_replications(self.build(classes, cfg), replications=0)

    def test_summarise_requires_results(self):
        with pytest.raises(SimulationError):
            summarise_replications([])

    def test_summarise_requires_consistent_classes(self, moderate_bp):
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        one = Scenario(make_classes(moderate_bp, 0.5, (1.0,)), cfg, seed=1).run()
        two = Scenario(make_classes(moderate_bp, 0.5, (1.0, 2.0)), cfg, seed=1).run()
        with pytest.raises(SimulationError):
            summarise_replications([one, two])


class TestRatioOfMeanSlowdowns:
    @staticmethod
    def summary(first: float) -> ReplicationSummary:
        per_class = (ReplicatedStatistic(first, 0.0, 0.0, 3), ReplicatedStatistic(1.0, 0.0, 0.0, 3))
        return ReplicationSummary(per_class, per_class[1], per_class, ())

    def test_ratios_to_class_one(self):
        assert self.summary(0.5).ratio_of_mean_slowdowns == (1.0, 2.0)

    @pytest.mark.parametrize("first", [0.0, float("nan")])
    def test_zero_or_nan_class_one_mean_gives_nan(self, first):
        ratios = self.summary(first).ratio_of_mean_slowdowns
        assert len(ratios) == 2 and all(np.isnan(ratios))
