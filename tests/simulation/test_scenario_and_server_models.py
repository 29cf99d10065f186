"""Tests for the Scenario/ServerModel architecture and the parallel runner."""

import multiprocessing

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.errors import SimulationError
from repro.scheduling import (
    DeficitWeightedRoundRobin,
    LotteryScheduler,
    StartTimeFairQueueing,
    WeightedFairQueueing,
)
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    ReplicationRunner,
    Scenario,
    ServerModel,
    SharedProcessorServer,
    StaticRateController,
    run_replications,
)
from repro.types import TrafficClass
from tests.conftest import make_classes


def overloaded_two_classes() -> tuple[TrafficClass, ...]:
    """Two classes at 100% offered load each: both stay backlogged, so the
    scheduler — not idleness — dictates the long-run service shares."""
    service = Deterministic(1.0)
    return (
        TrafficClass("a", 1.0, service, 1.0),
        TrafficClass("b", 1.0, service, 1.0),
    )


WEIGHTS = (0.3, 0.7)

DISCIPLINES = {
    "wfq": lambda: WeightedFairQueueing(2),
    "sfq": lambda: StartTimeFairQueueing(2),
    "lottery": lambda: LotteryScheduler(2, rng=np.random.default_rng(99)),
    "drr": lambda: DeficitWeightedRoundRobin(2, quantum=1.0),
}


@pytest.mark.usefixtures("checked_runs")
class TestServiceSharesTrackWeights:
    @pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
    def test_long_run_shares_match_controller_weights(self, discipline):
        classes = overloaded_two_classes()
        cfg = MeasurementConfig(warmup=500.0, horizon=4_500.0, window=500.0)
        scenario = Scenario(
            classes,
            cfg,
            server=SharedProcessorServer(DISCIPLINES[discipline]()),
            controller=StaticRateController(WEIGHTS),
            seed=11,
        )
        result = scenario.run()
        work = result.per_class_completed_work()
        total = sum(work)
        assert total > 0
        shares = tuple(w / total for w in work)
        for share, weight in zip(shares, WEIGHTS):
            assert share == pytest.approx(weight, rel=0.1), (
                f"{discipline}: shares {shares} should track weights {WEIGHTS}"
            )


@pytest.mark.usefixtures("checked_runs")
class TestScenarioComposition:
    def test_scenario_defaults_to_rate_scalable_servers(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        plain = Scenario(classes, cfg, seed=5).run()
        explicit = Scenario(classes, cfg, server=RateScalableServers(), seed=5).run()
        assert plain.generated_counts == explicit.generated_counts
        assert plain.per_class_mean_slowdowns() == explicit.per_class_mean_slowdowns()

    def test_server_model_cannot_be_reused_across_scenarios(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        server = RateScalableServers()
        Scenario(classes, cfg, server=server, seed=1)
        with pytest.raises(SimulationError):
            Scenario(classes, cfg, server=server, seed=1)

    def test_capacity_scales_shared_processor(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=500.0, horizon=4_000.0, window=500.0)
        slow = Scenario(
            classes,
            cfg,
            server=SharedProcessorServer(WeightedFairQueueing(2), capacity=1.0),
            seed=9,
        ).run()
        fast = Scenario(
            classes,
            cfg,
            server=SharedProcessorServer(WeightedFairQueueing(2), capacity=4.0),
            seed=9,
        ).run()
        assert fast.system_mean_slowdown() < slow.system_mean_slowdown()


class TestCustomServerModel:
    """Runs here skip ``checked_runs``: an M/G/inf model serves every request
    at once, so the per-class FCFS order that ``check_run`` asserts on a
    single node does not hold."""

    def test_custom_server_model_plugs_in(self, moderate_bp):
        """A third server model (infinite parallelism) composes unchanged."""

        class InfiniteServers(ServerModel):
            """M/G/inf: every request is served immediately at full rate."""

            def _on_bind(self) -> None:
                self.in_flight = np.empty(0, dtype=np.int64)

            def submit_batch(self, rids, classes=None, arrivals=None, sizes=None):
                self.ledger.start_service_batch(rids, self.ledger.arrivals_of(rids))
                self.in_flight = np.concatenate([self.in_flight, rids])

            def drain(self, now):
                ledger = self.ledger
                done_at = ledger.arrivals_of(self.in_flight) + ledger.sizes_of(self.in_flight)
                due = done_at <= now
                order = np.argsort(done_at[due], kind="stable")
                rids = self.in_flight[due][order]
                ledger.complete_batch(rids, done_at[due][order])
                self.in_flight = self.in_flight[~due]
                return rids

            def apply_rates(self, rates):
                pass

            def backlogs(self):
                return tuple(0 for _ in self.classes)

        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        result = Scenario(classes, cfg, server=InfiniteServers(), seed=3).run()
        assert sum(result.completed_counts) > 0
        # No queueing at all: every measured slowdown is exactly zero.
        for value in result.per_class_mean_slowdowns():
            assert value == pytest.approx(0.0)


@pytest.mark.usefixtures("checked_runs")
class TestParallelReplicationRunner:
    def build(self, classes, cfg):
        def _build(i, seed):
            return Scenario(classes, cfg, seed=seed).run()

        return _build

    def test_parallel_summary_is_bit_identical_to_serial(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        build = self.build(classes, cfg)
        serial = ReplicationRunner(replications=5, base_seed=13, workers=1).run(build)
        parallel = ReplicationRunner(replications=5, base_seed=13, workers=3).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        assert parallel.ratios_to_first == serial.ratios_to_first
        assert [r.generated_counts for r in parallel.results] == [
            r.generated_counts for r in serial.results
        ]
        assert [r.per_class_mean_slowdowns() for r in parallel.results] == [
            r.per_class_mean_slowdowns() for r in serial.results
        ]

    def test_worker_count_does_not_leak_into_seeds(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_500.0, window=200.0)
        build = self.build(classes, cfg)
        summaries = [
            ReplicationRunner(replications=4, base_seed=21, workers=w).run(build)
            for w in (1, 2, 4)
        ]
        first = summaries[0]
        for other in summaries[1:]:
            assert other.mean_slowdowns == first.mean_slowdowns

    def test_run_replications_accepts_workers(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0,))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        build = self.build(classes, cfg)
        serial = run_replications(build, replications=2, base_seed=3, workers=1)
        parallel = run_replications(build, replications=2, base_seed=3, workers=2)
        assert serial.mean_slowdowns == parallel.mean_slowdowns

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork: the runner degrades to serial, where build exceptions "
        "propagate unchanged instead of being wrapped",
    )
    def test_worker_failure_propagates(self):
        def build(i, seed):
            raise ValueError(f"boom in replication {i}")

        runner = ReplicationRunner(replications=3, base_seed=0, workers=2)
        with pytest.raises(SimulationError, match="failed in a worker"):
            runner.run(build)

    def test_resolved_workers_caps_at_replications(self):
        assert ReplicationRunner(replications=2, workers=8).resolved_workers() == 2
        assert ReplicationRunner(replications=8, workers=3).resolved_workers() == 3
        assert ReplicationRunner(replications=8, workers=1).resolved_workers() == 1
        auto = ReplicationRunner(replications=64, workers=0).resolved_workers()
        assert 1 <= auto <= 64

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            ReplicationRunner(replications=4, workers=-1).resolved_workers()

    def test_invalid_replication_count(self):
        with pytest.raises(SimulationError):
            ReplicationRunner(replications=0).run(lambda i, s: None)
