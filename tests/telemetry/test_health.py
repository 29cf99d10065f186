"""Tests for per-window ClusterHealthSnapshot derivation."""

import numpy as np
import pytest

from repro import PsdSpec, Scenario, make_cluster, parse_fleet_events
from repro.cluster.capacity import resolve_capacities
from repro.errors import ParameterError
from repro.telemetry import ClusterHealthSnapshot, Telemetry, build_health_snapshots

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


def run_churn_cluster(classes, measurement, *, telemetry=None, capacities=None):
    warmup = measurement.warmup
    fleet = parse_fleet_events(f"kill:1@{warmup * 2:g} restore:1@{warmup * 4:g}")
    cluster = make_cluster(
        3,
        "weighted_jsq" if capacities else "jsq",
        seed=np.random.SeedSequence(3),
        capacities=capacities,
        fleet=fleet,
    )
    scenario = Scenario(
        classes,
        measurement,
        server=cluster,
        spec=PsdSpec.of(*(c.delta for c in classes)),
        seed=np.random.SeedSequence(7),
        telemetry=telemetry,
    )
    return scenario.run()


class TestSnapshotObject:
    def test_live_fraction_and_row(self):
        snapshot = ClusterHealthSnapshot(
            window_index=2,
            start=10.0,
            end=15.0,
            availability=(1.0, 0.5, 0.0),
            assigned_rates=(0.4, 0.2, 0.0),
            utilisation=(0.4, 0.4, 0.0),
            backlogs=(3, 1, 0),
        )
        assert snapshot.num_nodes == 3
        assert snapshot.live_fraction == pytest.approx(0.5)
        row = snapshot.to_row()
        assert row["window"] == 2
        assert row["backlogs"] == [3, 1, 0]

    def test_row_omits_missing_backlogs(self):
        snapshot = ClusterHealthSnapshot(
            window_index=0,
            start=0.0,
            end=1.0,
            availability=(1.0,),
            assigned_rates=(1.0,),
            utilisation=(1.0,),
        )
        assert "backlogs" not in snapshot.to_row()


class TestBuildHealthSnapshots:
    def test_needs_a_fleet_timeline(self, two_classes, short_measurement):
        scenario = Scenario(
            two_classes,
            short_measurement,
            spec=PsdSpec.of(1, 2),
            seed=np.random.SeedSequence(7),
        )
        result = scenario.run()
        with pytest.raises(ParameterError, match="fleet timeline"):
            build_health_snapshots(result)

    def test_availability_agrees_with_monitor_bit_exact(
        self, two_classes, short_measurement
    ):
        """Acceptance criterion: snapshot availability must agree with
        WindowedMonitor.availability_series — both go through the same
        windowed_time_average helper, so agreement is exact, not approximate."""
        telemetry = Telemetry()
        result = run_churn_cluster(two_classes, short_measurement, telemetry=telemetry)
        snapshots = build_health_snapshots(result, telemetry=telemetry)
        series = result.per_node_availability()
        assert len(snapshots) == series.shape[0]
        for window, snapshot in enumerate(snapshots):
            assert snapshot.availability == tuple(series[window])

    def test_killed_node_shows_zero_rate_and_utilisation(
        self, two_classes, short_measurement
    ):
        telemetry = Telemetry()
        result = run_churn_cluster(two_classes, short_measurement, telemetry=telemetry)
        snapshots = build_health_snapshots(result, telemetry=telemetry)
        # Node 1 is down from warmup*2 to warmup*4: windows fully inside the
        # outage see zero availability, assignment and utilisation for it.
        dead = [s for s in snapshots if s.availability[1] == 0.0]
        assert dead
        for snapshot in dead:
            assert snapshot.assigned_rates[1] == 0.0
            assert snapshot.utilisation[1] == 0.0
            # Overlap fractions accumulate in floating point, so the always-live
            # node sums to 1.0 only within rounding.
            assert snapshot.availability[0] == pytest.approx(1.0)
        # Live nodes carry positive assigned rate in every window.
        assert all(s.assigned_rates[0] > 0.0 for s in snapshots)

    def test_backlogs_come_from_telemetry_marks(self, two_classes, short_measurement):
        telemetry = Telemetry()
        result = run_churn_cluster(two_classes, short_measurement, telemetry=telemetry)
        with_marks = build_health_snapshots(result, telemetry=telemetry)
        assert all(s.backlogs is not None for s in with_marks if s.window_index > 0)
        without = build_health_snapshots(result)
        assert all(s.backlogs is None for s in without)

    def test_heterogeneous_capacities_scale_utilisation(
        self, two_classes, short_measurement
    ):
        telemetry = Telemetry()
        capacities = resolve_capacities((2.0, 1.0, 1.0), 3, total=1.0)
        result = run_churn_cluster(
            two_classes, short_measurement, telemetry=telemetry, capacities=capacities
        )
        snapshots = build_health_snapshots(result, telemetry=telemetry)
        for snapshot in snapshots:
            for node in range(3):
                if snapshot.availability[node] == 1.0:
                    expected = snapshot.assigned_rates[node] / capacities[node]
                    assert snapshot.utilisation[node] == pytest.approx(expected)

    def test_explicit_num_windows(self, two_classes, short_measurement):
        telemetry = Telemetry()
        result = run_churn_cluster(two_classes, short_measurement, telemetry=telemetry)
        assert len(build_health_snapshots(result, num_windows=3, telemetry=telemetry)) == 3
