"""Dynamic fleets: schedule parsing, drain/join/degrade semantics, timelines.

The :class:`~repro.cluster.FleetSchedule` contract, pinned end to end: a
leaving node drains its queue at its last-applied rates and only then goes
down, a joining node re-enters dispatch and rate partitioning at the event
time, ``set_capacity`` re-weighs capacity-aware policies and partitioners in
place, the whole history lands in the fleet timeline, and a fully drained
fleet fails loudly with :class:`~repro.errors.ClusterDrainedError` instead
of index-erroring.
"""

import numpy as np
import pytest

from repro.cluster import (
    NODE_DOWN,
    NODE_DRAINING,
    NODE_LIVE,
    CapacityProportional,
    ClassAffinity,
    ClusterServerModel,
    FleetEvent,
    FleetSchedule,
    make_cluster,
    parse_fleet_events,
)
from repro.distributions import Deterministic
from repro.errors import ClusterDrainedError, SimulationError
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    Scenario,
    SimulationEngine,
    fleet_availability,
)
from tests.conftest import make_classes, node_rates
from tests.invariants import check_run

pytestmark = pytest.mark.usefixtures("checked_runs")


class TestParsing:
    def test_tokens_and_aliases(self):
        schedule = parse_fleet_events("kill:0@200 restore:0@400, degrade:1=0.5@100")
        assert [e.spec() for e in schedule.events] == [
            "set_capacity:1=0.5@100",
            "leave:0@200",
            "join:0@400",
        ]

    def test_events_sorted_by_time_stable(self):
        schedule = parse_fleet_events("join:1@50 leave:0@10 set_capacity:2=2@50")
        assert [(e.time, e.action) for e in schedule.events] == [
            (10.0, "leave"),
            (50.0, "join"),
            (50.0, "set_capacity"),
        ]

    def test_down_marks_initial_down(self):
        schedule = parse_fleet_events(["down:2", "join:2@30"])
        assert schedule.initial_down == (2,)
        assert schedule.spec() == "down:2 join:2@30"

    def test_capacity_none_restores_unconstrained(self):
        schedule = parse_fleet_events("set_capacity:0=none@5")
        assert schedule.events[0].capacity is None

    @pytest.mark.parametrize(
        "token",
        [
            "explode:0@10",  # unknown action
            "leave:0",  # missing time
            "leave:0=3@10",  # value on a non-capacity event
            "set_capacity:0@10",  # missing value
            "set_capacity:0=fast@10",  # non-numeric capacity
            "set_capacity:0=-1@10",  # non-positive capacity
            "leave:0@banana",  # non-numeric time
            "down:0@10",  # down takes no time
            "nonsense",  # no grammar match
        ],
    )
    def test_bad_tokens_are_rejected(self, token):
        with pytest.raises(SimulationError):
            parse_fleet_events(token)

    def test_event_validation(self):
        with pytest.raises(SimulationError, match="time"):
            FleetEvent(time=-1.0, action="leave", node=0)
        with pytest.raises(SimulationError, match="action"):
            FleetEvent(time=0.0, action="reboot", node=0)
        with pytest.raises(SimulationError, match="capacity"):
            FleetEvent(time=0.0, action="leave", node=0, capacity=1.0)
        with pytest.raises(SimulationError, match="initial_down"):
            FleetSchedule(initial_down=(1, 1))

    @pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
    def test_event_time_must_be_finite(self, time):
        # An event at ``inf`` could never fire; it used to build and be
        # silently ignored.
        with pytest.raises(SimulationError, match="finite"):
            parse_fleet_events(f"leave:0@{time}")
        with pytest.raises(SimulationError, match="finite"):
            FleetEvent(time=float(time), action="leave", node=0)

    def test_scaled_to_time_units(self):
        schedule = parse_fleet_events("leave:0@200 join:0@400")
        scaled = schedule.scaled_to_time_units(0.5)
        assert [e.time for e in scaled.events] == [100.0, 200.0]
        # The original is untouched (schedules are immutable values).
        assert [e.time for e in schedule.events] == [200.0, 400.0]

    def test_conflicting_events_same_node_same_instant_rejected(self):
        # Regression: ``leave:0@200 join:0@200`` used to be accepted and
        # silently resolved by insertion order.  The pair has no defined
        # outcome and must fail loudly, naming both tokens.
        with pytest.raises(SimulationError, match=r"leave:0@200.*join:0@200"):
            parse_fleet_events("leave:0@200 join:0@200")
        with pytest.raises(SimulationError, match="conflicting fleet events"):
            parse_fleet_events("set_capacity:1=0.5@50 leave:1@50")

    def test_conflict_detected_on_direct_construction(self):
        with pytest.raises(SimulationError, match="conflicting fleet events"):
            FleetSchedule(
                events=(
                    FleetEvent(time=200.0, action="join", node=0),
                    FleetEvent(time=200.0, action="leave", node=0),
                )
            )

    def test_same_instant_events_on_different_nodes_stay_legal(self):
        # Correlated failures are a feature: simultaneous events are fine
        # as long as they target different nodes.
        schedule = parse_fleet_events("leave:0@200 leave:1@200 join:2@200")
        assert len(schedule.events) == 3
        # And the same node at *different* instants is of course fine too.
        assert len(parse_fleet_events("leave:0@200 join:0@400").events) == 2

    def test_out_of_range_node_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="node 5"):
            make_cluster(2, fleet=parse_fleet_events("leave:5@10"))
        with pytest.raises(SimulationError, match="initial_down"):
            make_cluster(2, fleet=FleetSchedule(initial_down=(3,)))


def bound_cluster(num_nodes=2, policy="round_robin", fleet=None, **kwargs):
    from repro.distributions import Deterministic

    classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
    cluster = make_cluster(num_nodes, policy, fleet=fleet, **kwargs)
    engine = SimulationEngine()
    cluster.bind(engine, classes)
    return engine, cluster


def submit_request(cluster, engine, class_index=0, size=1.0):
    rid = cluster.ledger.append(class_index, engine.now, size)
    cluster.submit_batch(np.asarray([rid], dtype=np.int64))


def run_until(engine, cluster, time):
    """Advance the engine, then drain the cluster to the same instant (what
    a scenario does at a window boundary) and log the completions."""
    engine.run_until(time)
    cluster.ledger.log_completions(cluster.drain(time))


class TestDrainSemantics:
    def test_leaving_node_drains_then_goes_down(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0"))
        cluster.apply_rates((1.0, 1.0))
        # Two class-0 requests land on node 0 (round robin: 0, 1, 0, 1);
        # node 0 serves class 0 at the equal-split rate 0.5 -> 2.0 per
        # request, so its queue drains at t=2 and t=4, past the leave.
        for _ in range(4):
            submit_request(cluster, engine)
        engine.run_until(1.5)
        assert cluster.node_state(0) == NODE_DRAINING
        assert cluster.live_nodes == (1,)
        # New work skips the draining node deterministically.
        submit_request(cluster, engine)
        submit_request(cluster, engine)
        assert cluster.ledger.node.tolist() == [0, 1, 0, 1, 1, 1]
        run_until(engine, cluster, 20.0)
        assert cluster.node_state(0) == NODE_DOWN
        assert cluster.pending(0, 0) == 0 and cluster.work_left(0) == 0.0
        # Every dispatched request completed, including the drained ones.
        assert cluster.ledger.num_completed == 6

    def test_leave_empty_node_goes_straight_down(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0"))
        cluster.apply_rates((1.0, 1.0))
        engine.run_until(2.0)
        assert cluster.node_state(0) == NODE_DOWN

    def test_rates_renormalise_over_live_nodes_at_event_time(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0"))
        cluster.apply_rates((0.6, 0.4))
        assert node_rates(cluster, 1) == pytest.approx([0.3, 0.2])
        engine.run_until(1.5)
        # The survivor now receives each class's whole rate, immediately.
        assert node_rates(cluster, 1) == pytest.approx([0.6, 0.4])

    def test_draining_node_keeps_its_last_rates(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0"))
        cluster.apply_rates((0.6, 0.4))
        submit_request(cluster, engine)  # node 0, class 0, keeps it busy
        engine.run_until(1.5)
        assert cluster.node_state(0) == NODE_DRAINING
        assert node_rates(cluster, 0) == pytest.approx([0.3, 0.2])

    def test_join_restores_dispatch_and_rates(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0 join:0@2.0"))
        cluster.apply_rates((1.0, 1.0))
        engine.run_until(2.5)
        assert cluster.node_state(0) == NODE_LIVE
        assert cluster.live_nodes == (0, 1)
        assert node_rates(cluster, 0) == pytest.approx([0.5, 0.5])
        submit_request(cluster, engine)
        assert cluster.ledger.node[-1] == 0

    def test_join_cancels_a_drain_in_progress(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1.0 join:0@1.5"))
        cluster.apply_rates((1.0, 1.0))
        for _ in range(4):
            submit_request(cluster, engine)
        engine.run_until(1.2)
        assert cluster.node_state(0) == NODE_DRAINING
        engine.run_until(1.7)
        assert cluster.node_state(0) == NODE_LIVE

    def test_initially_down_node_joins_later(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("down:1 join:1@5"))
        cluster.apply_rates((1.0, 1.0))
        submit_request(cluster, engine)
        submit_request(cluster, engine)
        assert cluster.ledger.node.tolist() == [0, 0]
        engine.run_until(6.0)
        submit_request(cluster, engine)
        submit_request(cluster, engine)
        assert cluster.ledger.node[-2:].tolist() == [1, 0]

    def test_invalid_transitions_fail_loudly(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1 leave:0@2"))
        cluster.apply_rates((1.0, 1.0))
        with pytest.raises(SimulationError, match="only a live node can leave"):
            engine.run_until(3.0)
        engine, cluster = bound_cluster(fleet=parse_fleet_events("join:0@1"))
        cluster.apply_rates((1.0, 1.0))
        with pytest.raises(SimulationError, match="already live"):
            engine.run_until(2.0)


class TestSetCapacity:
    def test_capacity_changes_in_place_and_policies_refresh(self):
        engine, cluster = bound_cluster(
            num_nodes=2,
            policy="weighted_jsq",
            capacities=(0.75, 0.25),
            fleet=parse_fleet_events("set_capacity:0=0.25@1"),
        )
        cluster.apply_rates((1.0, 1.0))
        assert cluster.dispatch._inverse_capacity == pytest.approx((4 / 3, 4.0))
        engine.run_until(2.0)
        assert cluster.node_capacity(0) == 0.25
        assert cluster.dispatch._inverse_capacity == pytest.approx((4.0, 4.0))

    def test_capacity_proportional_renormalises_at_event(self):
        engine, cluster = bound_cluster(
            num_nodes=2,
            policy="round_robin",
            capacities=(0.75, 0.25),
            partitioner=CapacityProportional(),
            fleet=parse_fleet_events("set_capacity:0=0.25@1"),
        )
        # Rates kept within every node's physical capacity, so the realised
        # server rates mirror the partition exactly.
        cluster.apply_rates((0.4, 0.0))
        assert node_rates(cluster, 0)[0] == pytest.approx(0.3)
        engine.run_until(2.0)
        # Equal capacities now: the re-partition fired at the event time.
        assert node_rates(cluster, 0)[0] == pytest.approx(0.2)
        assert node_rates(cluster, 1)[0] == pytest.approx(0.2)

    def test_capacity_none_restores_unconstrained(self):
        engine, cluster = bound_cluster(
            num_nodes=2,
            capacities=(0.5, 0.5),
            fleet=parse_fleet_events("set_capacity:0=none@1"),
        )
        cluster.apply_rates((1.0, 1.0))
        engine.run_until(2.0)
        assert cluster.bank.capacities[0] is None
        assert cluster.node_capacity(0) == 1.0


class TestClusterDrained:
    """Regression: a fully drained fleet raises ClusterDrainedError.

    Before the fleet machinery a cluster always had every node live; the
    live-set filtering introduces the all-draining edge, where a naive
    policy loop would fall through to an ``IndexError`` on an empty live
    tuple.  The contract is a clear :class:`ClusterDrainedError` from the
    cluster's submit guard and from every policy and partitioner.
    """

    def drained_cluster(self, policy="round_robin"):
        engine, cluster = bound_cluster(
            policy=policy, fleet=parse_fleet_events("leave:0@1 leave:1@1")
        )
        cluster.apply_rates((1.0, 1.0))
        engine.run_until(2.0)
        assert cluster.live_nodes == ()
        return engine, cluster

    def test_submit_raises_cluster_drained(self):
        engine, cluster = self.drained_cluster()
        with pytest.raises(ClusterDrainedError, match="draining or down"):
            submit_request(cluster, engine)

    @pytest.mark.parametrize(
        "policy",
        [
            "round_robin",
            "weighted_random",
            "jsq",
            "weighted_jsq",
            "fastest_available",
            "least_work",
            "affinity",
        ],
    )
    def test_policies_raise_cluster_drained_not_index_error(self, policy):
        engine, cluster = self.drained_cluster(policy=policy)
        rid = cluster.ledger.append(0, engine.now, 1.0)
        with pytest.raises(ClusterDrainedError):
            cluster.dispatch.select_node(rid, 0)

    def test_partitioners_raise_cluster_drained(self):
        from repro.cluster import PARTITIONERS, build_partitioner

        engine, cluster = self.drained_cluster()
        for name in sorted(PARTITIONERS):
            with pytest.raises(ClusterDrainedError):
                build_partitioner(name).partition((0.5, 0.5), cluster)

    def test_window_boundary_during_full_outage_does_not_crash(self):
        # apply_rates at a window boundary while the whole fleet is out must
        # be a no-op (rates re-apply at the next join), not a crash.
        engine, cluster = self.drained_cluster()
        cluster.apply_rates((0.7, 0.3))
        assert cluster.live_nodes == ()

    def test_scenario_arrival_during_full_outage_raises(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=1_000.0, window=100.0)
        server = make_cluster(2, fleet=parse_fleet_events("leave:0@5 leave:1@5"))
        scenario = Scenario(classes, cfg, server=server, seed=3)
        with pytest.raises(ClusterDrainedError):
            scenario.run()

    def test_affinity_fails_over_to_live_node_and_back(self):
        engine, cluster = bound_cluster(
            num_nodes=3,
            policy=ClassAffinity(),
            fleet=parse_fleet_events("leave:1@1 join:1@3"),
        )
        cluster.apply_rates((1.0, 1.0))
        assert cluster.dispatch.effective_home(1) == 1
        engine.run_until(2.0)
        # Class 1's home (node 1) is down: fail over upwards to node 2, and
        # the rate follows through the affinity partitioner.
        assert cluster.dispatch.effective_home(1) == 2
        assert node_rates(cluster, 2)[1] == pytest.approx(1.0)
        engine.run_until(4.0)
        assert cluster.dispatch.effective_home(1) == 1
        assert node_rates(cluster, 1)[1] == pytest.approx(1.0)


class TestFleetTimelineAndAvailability:
    def test_timeline_records_every_transition(self):
        engine, cluster = bound_cluster(fleet=parse_fleet_events("leave:0@1 join:0@5"))
        cluster.apply_rates((1.0, 1.0))
        for _ in range(4):
            submit_request(cluster, engine)
        engine.run_until(10.0)
        states = [entry[1] for entry in cluster.fleet_timeline]
        assert states[0] == (NODE_LIVE, NODE_LIVE)
        assert (NODE_DRAINING, NODE_LIVE) in states
        assert (NODE_DOWN, NODE_LIVE) in states
        assert states[-1] == (NODE_LIVE, NODE_LIVE)
        times = [entry[0] for entry in cluster.fleet_timeline]
        assert times == sorted(times)

    def test_fleet_availability_fractions(self):
        timeline = [
            (0.0, ("live", "live"), (None, None)),
            (15.0, ("down", "live"), (None, None)),
            (25.0, ("live", "live"), (None, None)),
        ]
        series = fleet_availability(timeline, warmup=10.0, window=10.0, num_windows=3)
        assert series.shape == (3, 2)
        assert series[:, 1] == pytest.approx([1.0, 1.0, 1.0])
        # Node 0: live for [10,15) of window 0 [10,20), for [25,30) of
        # window 1 [20,30) (down over [15,25)), and all of window 2.
        assert series[:, 0] == pytest.approx([0.5, 0.5, 1.0])

    def test_fleet_availability_validation(self):
        with pytest.raises(Exception):
            fleet_availability([], warmup=0.0, window=10.0, num_windows=1)

    def test_scenario_threads_timeline_into_result(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
        server = make_cluster(2, fleet=parse_fleet_events("leave:0@900 join:0@1300"))
        result = Scenario(classes, cfg, server=server, spec=None, seed=11).run()
        assert result.fleet_timeline is not None
        availability = result.per_node_availability()
        assert availability.shape == (9, 2)
        # Node 0 is out over [900, 1300): windows 3 [800,1000) and 4-5.
        assert availability[4].tolist() == [0.0, 1.0]
        assert availability[0].tolist() == [1.0, 1.0]
        # Node 1 never left.
        assert np.all(availability[:, 1] == 1.0)

    def test_availability_window_count_survives_float_jitter(self):
        # Scaled protocols frequently land (horizon - warmup) / window a hair
        # *below* the exact count (e.g. time unit 0.437199 gives 9.9999...);
        # the default num_windows must not drop the last window to the floor.
        from repro.distributions import Deterministic

        service = Deterministic(0.437199)
        classes = make_classes(service, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=2_000.0, horizon=12_000.0, window=1_000.0)
        scaled = cfg.scaled_to_time_units(service.mean())
        result = Scenario(classes, scaled, server=make_cluster(2), seed=1).run()
        assert result.per_node_availability().shape == (10, 2)

    def test_non_cluster_results_have_no_fleet_data(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_000.0, window=200.0)
        result = Scenario(classes, cfg, server=RateScalableServers(), seed=1).run()
        assert result.fleet_timeline is None
        assert result.per_node_availability() is None


class TestStaticFleetCompatibility:
    def test_empty_schedule_records_single_snapshot(self):
        engine, cluster = bound_cluster()
        assert len(cluster.fleet_timeline) == 1
        assert cluster.fleet_timeline[0][1] == (NODE_LIVE, NODE_LIVE)
        assert cluster.live_nodes == (0, 1)

    def test_cluster_server_model_accepts_explicit_schedule(self):
        cluster = ClusterServerModel(
            [None, None],
            fleet=FleetSchedule(),
        )
        assert not cluster.fleet


class TestLiveDispatchInvariant:
    def test_check_run_rejects_a_row_on_a_node_that_was_down(self):
        """``check_run`` reads each admitted row's node against the fleet
        timeline, so a row relabelled onto a node in its outage fails it."""
        classes = make_classes(Deterministic(1.0), 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=200.0, horizon=1_200.0, window=200.0)
        cluster = make_cluster(
            2, "round_robin", fleet=parse_fleet_events("kill:1@400 restore:1@800")
        )
        result = Scenario(classes, cfg, server=cluster, seed=5).run()
        ledger = result.ledger
        arrival = ledger.arrival_time
        (outage,) = np.flatnonzero((arrival >= 400.0) & (arrival < 800.0))[:1]
        assert ledger.node[outage] == 0
        ledger.assign_nodes(int(outage), 1)
        with pytest.raises(AssertionError, match="not live"):
            check_run(result, per_class_servers=True)

