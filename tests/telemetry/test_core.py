"""Tests for the Telemetry facade and its threading through Scenario."""

import numpy as np
import pytest

from repro import MeasurementConfig, PsdSpec, Scenario, make_cluster, parse_fleet_events
from repro.cluster import resolve_capacities
from repro.core.admission import QueueLengthAdmission
from repro.errors import ParameterError
from repro.telemetry import Telemetry

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


def run_scenario(classes, measurement, *, telemetry=None, server=None, seed=7):
    scenario = Scenario(
        classes,
        measurement,
        server=server,
        spec=PsdSpec.of(*(c.delta for c in classes)),
        seed=np.random.SeedSequence(seed),
        telemetry=telemetry,
    )
    return scenario.run(), scenario


class TestTelemetryConstruction:
    def test_rejects_out_of_range_sample_rate(self):
        with pytest.raises(ParameterError):
            Telemetry(trace_sample_rate=1.5)
        with pytest.raises(ParameterError):
            Telemetry(trace_sample_rate=-0.1)

    def test_disabled_hooks_record_nothing(self):
        telemetry = Telemetry(enabled=False)
        telemetry.on_batch(1.0, 5)
        telemetry.on_drain(1.0, 3)
        telemetry.on_server_drain(0, 2)
        telemetry.on_admission_block(np.asarray([0]), np.asarray([0]))
        assert telemetry.batch_marks == []
        assert telemetry.drain_marks == []
        assert telemetry.registry.instruments() == []


class TestScenarioIntegration:
    def test_aggregates_bit_identical_across_telemetry_modes(
        self, two_classes, short_measurement
    ):
        """The hard no-op requirement: None, disabled and enabled telemetry
        must all produce bit-identical aggregates and rate histories."""
        baseline, _ = run_scenario(two_classes, short_measurement)
        for telemetry in (Telemetry(enabled=False), Telemetry()):
            result, _ = run_scenario(two_classes, short_measurement, telemetry=telemetry)
            assert result.per_class_mean_slowdowns() == baseline.per_class_mean_slowdowns()
            assert result.system_mean_slowdown() == baseline.system_mean_slowdown()
            assert result.rate_history == baseline.rate_history
            assert result.completed_counts == baseline.completed_counts

    def test_batched_aggregates_bit_identical(self, two_classes, short_measurement):
        baseline, _ = run_scenario(two_classes, short_measurement)
        result, _ = run_scenario(two_classes, short_measurement, telemetry=Telemetry())
        assert result.per_class_mean_slowdowns() == baseline.per_class_mean_slowdowns()
        assert result.rate_history == baseline.rate_history

    def test_batched_instruments_populated(self, two_classes, short_measurement):
        telemetry = Telemetry()
        result, scenario = run_scenario(two_classes, short_measurement, telemetry=telemetry)
        registry = telemetry.registry
        assert registry.get("scenario.runs").value == 1
        assert registry.get("engine.events_processed").value == scenario.engine.events_processed
        assert registry.get("scenario.completions").value == sum(result.completed_counts)
        assert registry.get("scenario.arrivals").value == sum(result.generated_counts)
        windows = registry.get("scenario.windows").value
        assert windows == len(result.rate_history) - 1
        assert len(registry.get("class0.rate").series) == windows
        assert registry.get("scenario.simulated_time").value == scenario.engine.now
        assert len(registry.get("server.backlog_total").series) == windows
        # The default server is one live node of unit capacity, so the
        # utilisation gauge reads the allocated total rate at every window.
        rates = dict(result.rate_history)
        assert registry.get("server.utilisation").series == [
            (time, sum(rates[time])) for time, _ in registry.get("class0.rate").series
        ]
        assert telemetry.batch_marks and telemetry.drain_marks
        assert registry.get("scenario.batch_size").count == len(telemetry.batch_marks)
        assert registry.get("scenario.drain_length").count == len(telemetry.drain_marks)
        # Per-class member drains observed through ServerModel.attach_telemetry.
        assert registry.get("class0.drain_length").count > 0
        # Arrivals ride window blocks, never one engine event each:
        assert registry.get("engine.events.arrival") is None

    def test_disabled_facade_installs_no_engine_listener(
        self, two_classes, short_measurement
    ):
        _, scenario = run_scenario(
            two_classes, short_measurement, telemetry=Telemetry(enabled=False)
        )
        assert scenario.engine._listener is None

    def test_admission_decisions_counted(self, two_classes, short_measurement):
        telemetry = Telemetry()
        admission = QueueLengthAdmission(limits=(2, 2))
        scenario = Scenario(
            two_classes,
            short_measurement,
            spec=PsdSpec.of(1, 2),
            seed=np.random.SeedSequence(7),
            admission=admission,
            telemetry=telemetry,
        )
        result = scenario.run()
        registry = telemetry.registry
        accepted = registry.get("admission.accepted").value
        rejected = registry.get("admission.rejected").value
        assert accepted == sum(result.generated_counts) - sum(result.rejected_counts)
        assert rejected == sum(result.rejected_counts)
        if rejected:
            per_class = sum(
                registry.get(f"admission.class{c}.rejected").value
                for c in range(len(two_classes))
                if registry.get(f"admission.class{c}.rejected") is not None
            )
            assert per_class == rejected


class TestClusterIntegration:
    def make_cluster_run(self, two_classes, short_measurement, telemetry=None):
        fleet = parse_fleet_events(
            f"kill:1@{short_measurement.warmup * 2:g} "
            f"restore:1@{short_measurement.warmup * 4:g}"
        )
        cluster = make_cluster(
            3,
            "weighted_jsq",
            seed=np.random.SeedSequence(3),
            fleet=fleet,
        )
        return run_scenario(
            two_classes, short_measurement, telemetry=telemetry, server=cluster
        )

    def test_cluster_run_bit_identical_with_telemetry(self, two_classes, short_measurement):
        baseline, _ = self.make_cluster_run(two_classes, short_measurement)
        result, _ = self.make_cluster_run(
            two_classes, short_measurement, telemetry=Telemetry()
        )
        assert result.per_class_mean_slowdowns() == baseline.per_class_mean_slowdowns()
        assert np.array_equal(result.ledger.node, baseline.ledger.node)
        assert result.rate_history == baseline.rate_history
        assert result.fleet_timeline == baseline.fleet_timeline

    def test_cluster_gauges_and_marks(self, two_classes, short_measurement):
        class CountingTelemetry(Telemetry):
            """Reads the cluster's whole-ledger dispatch counts at every boundary."""

            def __init__(self):
                super().__init__()
                self.counts = []

            def on_window(self, scenario, obs):
                super().on_window(scenario, obs)
                self.counts.append(scenario.server.dispatch_counts())

        telemetry = CountingTelemetry()
        result, scenario = self.make_cluster_run(
            two_classes, short_measurement, telemetry=telemetry
        )
        registry = telemetry.registry
        assert registry.get("fleet.events").value == 2
        assert registry.get("cluster.live_nodes").value == 3.0
        backlog = result.window_table.node_backlog
        for node in range(3):
            # The backlog gauge reads what the window table records.
            gauge = registry.get(f"cluster.node{node}.backlog").series
            assert [value for _, value in gauge] == backlog[1:, node].tolist()
            assert registry.get(f"cluster.node{node}.utilisation") is not None
            # The dispatched gauge counts only the rows since the last
            # boundary, yet equals the whole-ledger count at every boundary.
            dispatched = registry.get(f"cluster.node{node}.dispatched").series
            assert len(dispatched) == len(telemetry.counts) == len(result.rate_history) - 1
            assert [value for _, value in dispatched] == [
                sum(counts[node]) for counts in telemetry.counts
            ]

    def test_utilisation_follows_live_capacity(self, two_classes, short_measurement):
        """``server.utilisation`` divides the allocated total rate by the
        capacity of the live nodes at each window, through degradation and
        a leave."""
        window = short_measurement.window
        telemetry = Telemetry()
        cluster = make_cluster(
            2,
            "weighted_jsq",
            capacities=resolve_capacities("2:1", 2),
            fleet=parse_fleet_events(
                [f"set_capacity:0=0.5@{1.5 * window!r}", f"leave:1@{2.5 * window!r}"]
            ),
        )
        result, _ = run_scenario(
            two_classes, short_measurement, telemetry=telemetry, server=cluster
        )
        rates = dict(result.rate_history)
        series = telemetry.registry.get("server.utilisation").series
        assert len(series) == len(result.rate_history) - 1
        for time, value in series:
            live = 1.0 if time < 1.5 * window else 0.5 + 1.0 / 3.0 if time < 2.5 * window else 0.5
            assert value == pytest.approx(sum(rates[time]) / live)

    def test_class_drain_lengths_sum_to_completed_rows(self, two_classes, short_measurement):
        """``weighted_jsq`` runs on the completion calendar, which drains no
        member: it observes ``class{c}.drain_length`` once per node and
        class with bookings at each synchronisation, so each histogram
        still sums to the class's completed rows."""
        telemetry = Telemetry()
        result, scenario = self.make_cluster_run(
            two_classes, short_measurement, telemetry=telemetry
        )
        assert scenario.server.bank._calendar is not None
        ledger = result.ledger
        completed = ledger.class_index[~np.isnan(ledger.completion_time)]
        for class_index in range(len(two_classes)):
            rows = int(np.count_nonzero(completed == class_index))
            assert rows > 0
            histogram = telemetry.registry.get(f"class{class_index}.drain_length")
            assert histogram.total == rows


class TestAutoscaleIntegration:
    def make_autoscaled_run(self, two_classes, short_measurement, telemetry=None):
        from repro.cluster import build_autoscaler
        from repro.cluster.fleet import FleetSchedule

        # Half fleet live at t=0 against 60% system load: the target tracker
        # must scale out, so the hook always sees join events.
        cluster = make_cluster(
            4,
            "weighted_jsq",
            capacities=(0.25,) * 4,
            seed=np.random.SeedSequence(5),
            fleet=FleetSchedule(initial_down=(2, 3)),
        )
        scenario = Scenario(
            two_classes,
            short_measurement,
            server=cluster,
            spec=PsdSpec.of(*(c.delta for c in two_classes)),
            seed=np.random.SeedSequence(11),
            autoscaler=build_autoscaler("target_tracking"),
            telemetry=telemetry,
        )
        return scenario.run(), scenario

    def test_autoscale_counters_match_emitted_events(self, two_classes, short_measurement):
        telemetry = Telemetry()
        result, _ = self.make_autoscaled_run(
            two_classes, short_measurement, telemetry=telemetry
        )
        registry = telemetry.registry
        joins = sum(1 for e in result.autoscale_events if e.action == "join")
        leaves = sum(1 for e in result.autoscale_events if e.action == "leave")
        assert joins > 0
        assert registry.get("autoscale.scale_out").value == joins
        scale_in = registry.get("autoscale.scale_in")
        assert (0 if scale_in is None else scale_in.value) == leaves
        # The generic fleet counter ticked once per applied event too.
        assert registry.get("fleet.events").value == len(result.autoscale_events)

    def test_node_hours_gauge_integrates_the_timeline(self, two_classes, short_measurement):
        from repro.cluster import node_hours

        telemetry = Telemetry()
        result, scenario = self.make_autoscaled_run(
            two_classes, short_measurement, telemetry=telemetry
        )
        gauge = telemetry.registry.get("cluster.node_hours")
        assert gauge.value == pytest.approx(
            node_hours(result.fleet_timeline, horizon=float(scenario.engine.now))
        )

    def test_autoscaled_run_bit_identical_with_telemetry(self, two_classes, short_measurement):
        baseline, _ = self.make_autoscaled_run(two_classes, short_measurement)
        result, _ = self.make_autoscaled_run(
            two_classes, short_measurement, telemetry=Telemetry()
        )
        assert result.autoscale_events == baseline.autoscale_events
        assert result.fleet_timeline == baseline.fleet_timeline
        assert result.per_class_mean_slowdowns() == baseline.per_class_mean_slowdowns()
