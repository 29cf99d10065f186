"""The window table: one row of a run's control record per window boundary.

Every run records ``time`` and ``rates``; a clustered run adds the applied
node partition and the per-node backlog.  The table is the same with or
without telemetry, and it survives the worker pool unchanged.
"""

import multiprocessing

import numpy as np
import pytest

from repro import PsdSpec, Scenario, make_cluster, parse_fleet_events
from repro.cluster import AutoscalerPolicy, FleetSchedule
from repro.cluster.fleet import NODE_LIVE
from repro.experiments.cluster import ClusterScalingBuild
from repro.simulation import ReplicationRunner
from repro.telemetry import Telemetry
from tests.invariants import CheckedBuild

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

COLUMNS = ("time", "rates", "node_shares", "node_backlog")


def churn_fleet(measurement):
    warmup = measurement.warmup
    return parse_fleet_events(f"kill:1@{warmup * 2:g} restore:1@{warmup * 4:g}")


def run_churn(classes, measurement, *, telemetry=None):
    cluster = make_cluster(
        3, "weighted_jsq", seed=np.random.SeedSequence(3), fleet=churn_fleet(measurement)
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


def live_at_rows(result):
    """``(W, N)``: whether each node was live when each row was written.

    Fleet events fire before a same-instant boundary, so the timeline entry
    in force at a row's time is the last one at or before it.
    """
    timeline = sorted(result.fleet_timeline, key=lambda entry: entry[0])
    times = [time for time, _, _ in timeline]
    live = np.array([[state == NODE_LIVE for state in states] for _, states, _ in timeline])
    return live[np.searchsorted(times, result.window_table.time, side="right") - 1]


def assert_tables_equal(a, b):
    for column in COLUMNS:
        left, right = getattr(a, column), getattr(b, column)
        assert (left is None) == (right is None), column
        if left is not None:
            assert left.dtype == right.dtype and np.array_equal(left, right), column


class TestClusterColumns:
    def test_shapes_and_first_row(self, two_classes, short_measurement):
        result = run_churn(two_classes, short_measurement)
        table = result.window_table
        rows = len(result.rate_history)
        assert table.time.shape == (rows,) and table.rates.shape == (rows, 2)
        assert table.node_shares.shape == (rows, 3, 2)
        assert table.node_backlog.shape == (rows, 3)
        assert table.node_backlog.dtype == np.int64
        assert table.time[0] == 0.0 and not table.node_backlog[0].any()

    def test_shares_conserve_each_class_rate(self, two_classes, short_measurement):
        result = run_churn(two_classes, short_measurement)
        table = result.window_table
        live = live_at_rows(result)
        assert live.any(axis=1).all()
        np.testing.assert_allclose(table.node_shares.sum(axis=1), table.rates, rtol=0, atol=1e-9)

    def test_killed_node_holds_no_share_during_its_outage(self, two_classes, short_measurement):
        result = run_churn(two_classes, short_measurement)
        shares = result.window_table.node_shares
        live = live_at_rows(result)
        down = ~live[:, 1]
        assert down.any() and live[:, 1].any()
        assert not shares[down, 1].any()
        assert (shares[live[:, 1], 1].sum(axis=-1) > 0.0).all()
        # The always-live node carries a share in every row.
        assert (shares[:, 0].sum(axis=-1) > 0.0).all()

    def test_row_0_follows_fleet_events_at_t0(self, two_classes, short_measurement):
        cluster = make_cluster(3, "round_robin", fleet=parse_fleet_events("kill:1@0"))
        result = Scenario(
            two_classes, short_measurement, server=cluster, spec=PsdSpec.of(1, 2), seed=5
        ).run()
        table = result.window_table
        assert [time for time, _, _ in result.fleet_timeline[:2]] == [0.0, 0.0]
        assert not table.node_shares[0, 1].any() and table.node_shares[0, 0].all()
        np.testing.assert_allclose(table.node_shares.sum(axis=1), table.rates, rtol=0, atol=1e-9)

    def test_backlog_counts_unfinished_rows_per_node(self, two_classes, short_measurement):
        result = run_churn(two_classes, short_measurement)
        ledger, table = result.ledger, result.window_table
        node, arrival, done = ledger.node, ledger.arrival_time, ledger.completion_time
        for time, backlog in zip(table.time, table.node_backlog):
            # Arrived before the boundary and not completed by it (NaN: never).
            unfinished = (arrival < time) & ~(done <= time)
            assert backlog.tolist() == np.bincount(node[unfinished], minlength=3).tolist()

    def test_a_boundary_row_follows_its_autoscale_events(self, two_classes, short_measurement):
        class JoinAll(AutoscalerPolicy):
            def desired_fleet_size(self, obs):
                return 3

        cluster = make_cluster(
            3,
            "weighted_jsq",
            seed=np.random.SeedSequence(3),
            fleet=FleetSchedule(initial_down=(2,)),
        )
        scenario = Scenario(
            two_classes,
            short_measurement,
            server=cluster,
            spec=PsdSpec.of(1, 2),
            seed=np.random.SeedSequence(7),
            autoscaler=JoinAll(),
        )
        result = scenario.run()
        (event,) = result.autoscale_events
        assert event.action == "join" and event.time == result.window_table.time[1]
        # The join lands at the first boundary, and that boundary's row
        # already holds the partition over the grown fleet.
        shares = result.window_table.node_shares
        assert not shares[0, 2].any() and shares[1:, 2].all()

    def test_same_table_with_and_without_telemetry(self, two_classes, short_measurement):
        baseline = run_churn(two_classes, short_measurement)
        for telemetry in (Telemetry(enabled=False), Telemetry()):
            result = run_churn(two_classes, short_measurement, telemetry=telemetry)
            assert_tables_equal(result.window_table, baseline.window_table)


class TestSingleServer:
    def test_no_cluster_columns_and_rate_history_is_its_view(self, two_classes, short_measurement):
        scenario = Scenario(
            two_classes,
            short_measurement,
            spec=PsdSpec.of(1, 2),
            seed=np.random.SeedSequence(7),
        )
        result = scenario.run()
        table = result.window_table
        assert table.node_shares is None and table.node_backlog is None
        assert table.rates.shape == (len(table.time), 2)
        assert result.rate_history == scenario.rate_history
        for time, rates in result.rate_history:
            assert type(time) is float and all(type(r) is float for r in rates)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool requires fork-start multiprocessing",
)
def test_table_survives_the_worker_pool(two_classes, short_measurement):
    build = CheckedBuild(
        ClusterScalingBuild(
            tuple(two_classes),
            short_measurement,
            PsdSpec.of(1, 2),
            num_nodes=3,
            policy="weighted_jsq",
            fleet=churn_fleet(short_measurement),
        )
    )
    serial = ReplicationRunner(replications=2, base_seed=11, workers=1).run(build)
    pooled = ReplicationRunner(replications=2, base_seed=11, workers=2).run(build)
    for a, b in zip(serial.results, pooled.results, strict=True):
        assert a.window_table.node_shares is not None
        assert_tables_equal(a.window_table, b.window_table)
