"""Tests for ClusterServerModel composition, partitioners and bookkeeping."""

import numpy as np
import pytest

from repro.cluster import (
    AffinityPartitioner,
    BacklogProportional,
    CapacityWeightedJsq,
    ClassAffinity,
    ClusterServerModel,
    DispatchPolicy,
    EqualSplit,
    RatePartitioner,
    RoundRobin,
    make_cluster,
    parse_fleet_events,
)
from repro.cluster.fleet import NODE_DOWN, NODE_DRAINING
from repro.core import PsdSpec
from repro.distributions import Deterministic
from repro.errors import SimulationError
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    Scenario,
    SimulationEngine,
    StaticRateController,
)
from repro.simulation.generator import TraceSource
from tests.conftest import make_classes, node_rates

pytestmark = pytest.mark.usefixtures("checked_runs")


def submit(cluster, class_index=0, size=1.0):
    """Dispatch one request arriving at t=0 as a one-row block."""
    rid = cluster.ledger.append(class_index, 0.0, size)
    cluster.submit_batch(np.asarray([rid], dtype=np.int64))
    return rid


def calendar_cluster(dispatch, *, num_nodes=3, fleet=None):
    """A bound cluster of 0.5-capacity nodes for a policy without
    ``select_block``; rates stay zero, so every dispatched request stays
    pending.  The bank starts its completion calendar at the first
    dispatch, before the policy chooses."""
    from repro.distributions import Deterministic

    classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
    cluster = ClusterServerModel(
        [0.5] * num_nodes,
        dispatch=dispatch,
        fleet=fleet,
    )
    engine = SimulationEngine()
    cluster.bind(engine, classes)
    return engine, cluster


class Pinned(DispatchPolicy):
    """A custom policy implementing only ``select_node``: every request goes
    to ``node``, valid or not."""

    def __init__(self, node):
        super().__init__()
        self.node = node

    def select_node(self, rid, class_index):
        return self.node


class LastLive(DispatchPolicy):
    """A custom policy implementing only ``select_node``."""

    def select_node(self, rid, class_index):
        return self.cluster.live_nodes[-1]


def submit_block(cluster, engine, classes):
    """Dispatch one block of unit requests arriving at the engine clock."""
    rids = [cluster.ledger.append(c, engine.now, 1.0) for c in classes]
    cluster.submit_batch(np.asarray(rids, dtype=np.int64))


class TestConstruction:
    def test_rejects_empty_node_list(self):
        with pytest.raises(SimulationError, match="at least one"):
            ClusterServerModel([])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_non_positive_capacity(self, bad):
        """A node that cannot serve, or that serves any load at once, is
        named by its index before the dispatch policy is bound."""
        dispatch = RoundRobin()
        with pytest.raises(SimulationError, match="node 1 capacity"):
            ClusterServerModel([1.0, bad], dispatch=dispatch)
        assert dispatch.cluster is None

    def test_takes_capacities_as_given(self):
        """Declared capacities become floats; an undeclared node (``None``)
        stays unconstrained and weighs 1.0 in capacity-aware policies."""
        cluster = ClusterServerModel([2, None, 1.5])
        assert cluster.num_nodes == 3
        assert cluster.bank.capacities == [2.0, None, 1.5]
        assert cluster.bank.capacity is None
        assert cluster.capacities == (2.0, 1.0, 1.5)

    def test_make_cluster_validates_node_count(self):
        with pytest.raises(SimulationError):
            make_cluster(0)

    def test_default_partitioner_follows_policy_preference(self):
        assert isinstance(make_cluster(2, "round_robin").partitioner, EqualSplit)
        assert isinstance(make_cluster(2, "affinity").partitioner, AffinityPartitioner)

    def test_invalid_node_choice_is_rejected(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=100.0, horizon=500.0, window=100.0)
        scenario = Scenario(
            classes,
            cfg,
            server=ClusterServerModel([None, None], dispatch=Pinned(7)),
            seed=1,
        )
        with pytest.raises(SimulationError, match="invalid.*node"):
            scenario.run()


class TestRateFanOut:
    def bound(self, partitioner=None, num_nodes=2, dispatch=None, moderate_bp=None):
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
        cluster = ClusterServerModel(
            [None] * num_nodes,
            dispatch=dispatch if dispatch is not None else RoundRobin(),
            partitioner=partitioner,
        )
        cluster.bind(SimulationEngine(), classes)
        return cluster

    def test_equal_split_conserves_rates(self):
        cluster = self.bound(EqualSplit(), num_nodes=4)
        cluster.apply_rates((0.6, 0.4))
        for node in range(4):
            assert node_rates(cluster, node) == pytest.approx([0.15, 0.1])

    def test_backlog_proportional_tracks_pending(self):
        cluster = self.bound(BacklogProportional(smoothing=0.0))
        shares = cluster.partitioner.partition((0.6, 0.4), cluster)
        # Nothing pending anywhere: falls back to the equal split.
        assert shares[0] == pytest.approx((0.3, 0.2))
        cluster.pending_table[0][0] = 3
        cluster.pending_table[1][0] = 1
        shares = cluster.partitioner.partition((0.6, 0.4), cluster)
        assert shares[0][0] == pytest.approx(0.45)
        assert shares[1][0] == pytest.approx(0.15)
        assert shares[0][1] == pytest.approx(0.2)  # class 2 still equal

    def test_backlog_proportional_smoothing_keeps_shares_positive(self):
        cluster = self.bound(BacklogProportional(smoothing=1.0))
        cluster.pending_table[0][0] = 8
        shares = cluster.partitioner.partition((1.0, 1.0), cluster)
        assert all(share[0] > 0 for share in shares)
        assert shares[0][0] == pytest.approx(0.9)

    def test_backlog_proportional_rejects_negative_smoothing(self):
        with pytest.raises(SimulationError):
            BacklogProportional(smoothing=-0.1)

    def test_affinity_partitioner_routes_whole_rate_home(self):
        affinity = ClassAffinity((1, 0))
        cluster = self.bound(dispatch=affinity)
        assert isinstance(cluster.partitioner, AffinityPartitioner)
        cluster.apply_rates((0.7, 0.3))
        assert node_rates(cluster, 0) == pytest.approx([0.0, 0.3])
        assert node_rates(cluster, 1) == pytest.approx([0.7, 0.0])

    def test_non_conserving_partitioner_is_rejected(self):
        class Leaky(RatePartitioner):
            def partition(self, rates, cluster):
                return [tuple(r / 2 for r in rates)] * cluster.num_nodes

        cluster = self.bound(Leaky(), num_nodes=3)
        with pytest.raises(SimulationError, match="conserve"):
            cluster.apply_rates((0.5, 0.5))

    def test_wrong_share_count_is_rejected(self):
        class Short(RatePartitioner):
            def partition(self, rates, cluster):
                return [tuple(rates)]

        cluster = self.bound(Short())
        with pytest.raises(SimulationError, match="share vectors"):
            cluster.apply_rates((0.5, 0.5))

    def test_rate_vector_length_validated(self):
        cluster = self.bound()
        with pytest.raises(SimulationError, match="expected 2 rates"):
            cluster.apply_rates((0.5, 0.3, 0.2))


class ByClass(DispatchPolicy):
    """A custom policy implementing only ``select_node``: class ``k`` goes
    to node ``k``."""

    def select_node(self, rid, class_index):
        return class_index


class TestAggregation:
    def test_backlogs_sum_over_nodes(self, moderate_bp):
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
        cluster = ClusterServerModel([None, None], dispatch=RoundRobin())
        cluster.bind(SimulationEngine(), classes)
        # Rates stay zero, so every submitted request occupies its node.
        # Round-robin interleaving sends the three class-0 requests to node 0
        # and the three class-1 requests to node 1.  On the block route a
        # row enters service only at a drain: all three queue until the
        # drain to t=0 puts each node's (frozen) head in service.
        for i in range(6):
            submit(cluster, class_index=i % 2)
        assert cluster.bank._calendar is None
        assert cluster.backlogs() == (3, 3)
        assert cluster.drain(0.0).size == 0
        assert cluster.backlogs() == (2, 2)
        assert cluster.pending(0, 0) == 3 and cluster.pending(1, 1) == 3
        assert cluster.dispatch_counts() == ((3, 0), (0, 3))
        assert cluster.ledger.node.tolist() == [0, 1, 0, 1, 0, 1]
        assert cluster.work_left(0) + cluster.work_left(1) == pytest.approx(6.0)

    def test_calendar_backlogs_hold_between_drains(self):
        """The calendar counts a server with pending rows as serving one of
        them, so its backlog reads the same before a drain puts the heads
        in service and after."""
        classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
        cluster = ClusterServerModel([None, None], dispatch=ByClass())
        cluster.bind(SimulationEngine(), classes)
        for i in range(6):
            submit(cluster, class_index=i % 2)
        assert cluster.bank._calendar is not None
        assert cluster.backlogs() == (2, 2)
        assert cluster.drain(0.0).size == 0
        assert cluster.bank.in_service == [0, None, None, 1]
        assert cluster.backlogs() == (2, 2)
        assert cluster.ledger.node.tolist() == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("policy", ["weighted_jsq", "round_robin"])
    def test_the_bank_drain_returns_the_cluster_drain_rows(self, monkeypatch, moderate_bp, policy):
        """On both routes the bank's drains book, write and return every
        completed row; the cluster's drain hands on exactly those rows,
        fleet-event syncs included, in the same order."""
        bank_rows, cluster_rows = [], []

        def recorded(drain, rows):
            def wrapper(self, now):
                done = drain(self, now)
                rows.append(done.tolist())
                return done

            return wrapper

        monkeypatch.setattr(
            RateScalableServers, "drain", recorded(RateScalableServers.drain, bank_rows)
        )
        monkeypatch.setattr(
            ClusterServerModel, "drain", recorded(ClusterServerModel.drain, cluster_rows)
        )
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=300.0, horizon=2_400.0, window=300.0)
        cluster = make_cluster(
            3, policy, capacities=(2.0, 1.0, 1.0), fleet=parse_fleet_events("leave:1@1000")
        )
        result = Scenario(classes, cfg, server=cluster, spec=PsdSpec.of(1, 2), seed=4).run()
        assert (cluster.bank._calendar is None) == (policy == "round_robin")
        # Fleet-event syncs drain the bank between two cluster drains.
        assert len(bank_rows) > len(cluster_rows)
        assert sum(bank_rows, []) == sum(cluster_rows, [])
        assert sum(cluster_rows, []) == result.ledger.completed_ids.tolist()
        assert sum(map(bool, bank_rows)) > len(bank_rows) // 2

    def test_rate_change_without_a_drain_is_refused(self):
        """The calendar re-predicts each class server's head from the
        member's in-service row, which matches only after a drain to the
        clock; a rate change without one must not re-predict a stale row."""
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0,))
        cluster = make_cluster(1, "jsq")
        cluster.bind(SimulationEngine(), classes)
        cluster.apply_rates((1.0,))
        ledger = cluster.ledger

        def arrive(*arrivals):
            times = np.asarray(arrivals)
            column = np.zeros(len(times), dtype=np.int64)
            cluster.submit_batch(ledger.append_batch(column, times, np.ones_like(times)))

        arrive(0.0, 0.5)
        cluster.drain(0.0)  # row 0 enters service
        arrive(2.0)  # books rows 0 and 1 ahead of the clock; row 2 is the head
        with pytest.raises(SimulationError, match="serves row 0 of class 0.*head is row 2"):
            cluster.apply_rates((2.0,))

    def test_drain_behind_booked_completions_is_refused(self):
        """The calendar books completions up to each dispatched arrival,
        ahead of the clock; a drain to an earlier instant must name that
        cause, not a queue mismatch."""
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0,))
        cluster = make_cluster(1, "jsq")
        cluster.bind(SimulationEngine(), classes)
        cluster.apply_rates((1.0,))
        times = np.array([1.0, 1.0, 2.0])
        column = np.zeros(3, dtype=np.int64)
        cluster.submit_batch(cluster.ledger.append_batch(column, times, np.ones(3)))
        with pytest.raises(
            SimulationError, match=r"booked at t=2, after the drain to t=0; the drain is behind"
        ):
            cluster.drain(0.0)

    def test_single_node_cluster_matches_bare_server(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=300.0, horizon=3_000.0, window=300.0)
        spec = PsdSpec.of(1, 2)
        bare = Scenario(classes, cfg, server=RateScalableServers(), spec=spec, seed=11).run()
        clustered = Scenario(
            classes, cfg, server=make_cluster(1, "round_robin"), spec=spec, seed=11
        ).run()
        assert clustered.generated_counts == bare.generated_counts
        assert clustered.per_class_mean_slowdowns() == bare.per_class_mean_slowdowns()
        assert clustered.rate_history == bare.rate_history

    def test_empty_node_bookkeeping_stays_consistent(self, moderate_bp):
        """Nodes that never receive a request keep every view well defined.

        Regression test for the empty-node edge case: an affinity cluster
        with more nodes than classes leaves the spare node permanently idle,
        and every aggregate the policies, partitioners and monitor stack
        read — ``backlogs``, ``pending``, ``work_left``, ``dispatch_counts``,
        the ledger's node column — must stay consistent (and the spare node's rate
        share must not break conservation).
        """
        classes = make_classes(moderate_bp, 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=300.0, horizon=2_500.0, window=300.0)
        cluster = make_cluster(3, "affinity")
        result = Scenario(classes, cfg, server=cluster, spec=PsdSpec.of(1, 2), seed=8).run()
        assert sum(result.completed_counts) > 0
        counts = cluster.dispatch_counts()
        # Classes 0/1 live on nodes 0/1; node 2 never sees a request.
        assert counts[2] == (0, 0)
        assert 2 not in cluster.ledger.node
        assert len(cluster.ledger) == sum(sum(row) for row in counts)
        assert cluster.pending(2, 0) == 0 and cluster.pending(2, 1) == 0
        assert cluster.work_left(2) == 0.0
        assert cluster.bank.in_service[4:] == [None, None]
        # Cluster-level backlogs aggregate cleanly over the idle node.
        assert len(cluster.backlogs()) == 2

    def test_more_nodes_than_requests(self, moderate_bp):
        """A fresh cluster dispatching fewer requests than it has nodes."""
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
        for policy in ("round_robin", "jsq", "least_work", "weighted_jsq"):
            cluster = make_cluster(5, policy)
            cluster.bind(SimulationEngine(), classes)
            submit(cluster)
            assert cluster.drain(0.0).size == 0
            assert cluster.ledger.node.tolist() == [0]
            assert cluster.backlogs() == (0, 0)  # in service, not queued
            for node in range(1, 5):
                assert cluster.work_left(node) == 0.0
                assert cluster.dispatch_counts()[node] == (0, 0)
            # Rates still fan out over the idle nodes without violating
            # conservation.
            cluster.apply_rates((0.6, 0.4))

    def test_boolean_node_choice_is_rejected(self):
        """select_node returning True must not silently dispatch to node 1."""
        _, cluster = calendar_cluster(Pinned(True), num_nodes=2)
        with pytest.raises(SimulationError, match="invalid.*node"):
            submit(cluster)
        assert cluster.bank._calendar is not None

    def test_static_controller_drives_cluster(self, moderate_bp):
        classes = make_classes(moderate_bp, 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=300.0, horizon=2_000.0, window=300.0)
        result = Scenario(
            classes,
            cfg,
            server=make_cluster(2, "least_work"),
            controller=StaticRateController((0.6, 0.4)),
            seed=6,
        ).run()
        assert sum(result.completed_counts) > 0


class TestCustomPolicyRouting:
    """Custom policies implementing only ``select_node`` run on the
    completion calendar through the default chooser, which calls
    ``select_node`` per request and validates every choice."""

    def test_select_node_only_policy_is_honoured(self):
        engine, cluster = calendar_cluster(LastLive())
        submit_block(cluster, engine, [0, 1, 0, 1, 0])
        assert cluster.bank._calendar is not None
        assert cluster.ledger.node.tolist() == [2] * 5
        assert cluster.dispatch_counts() == ((0, 0), (0, 0), (3, 2))

    def test_subclass_overriding_select_node_and_its_chooser_is_honoured(self):
        class LastLiveJsq(CapacityWeightedJsq):
            chooser = DispatchPolicy.chooser

            def select_node(self, rid, class_index):
                return self.cluster.live_nodes[-1]

        engine, cluster = calendar_cluster(LastLiveJsq())
        submit_block(cluster, engine, [0, 1, 0, 1, 0])
        assert cluster.bank._calendar is not None
        # Weighted JSQ would have spread the block over every node.
        assert cluster.ledger.node.tolist() == [2] * 5
        assert cluster.dispatch_counts() == ((0, 0), (0, 0), (3, 2))

    def test_instance_patched_select_node_is_honoured(self):
        policy = LastLive()
        policy.select_node = lambda rid, class_index: 1
        engine, cluster = calendar_cluster(policy)
        submit_block(cluster, engine, [0, 1, 0])
        assert cluster.bank._calendar is not None
        assert cluster.ledger.node.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("choice", [True, 3, -1, 1.0])
    def test_invalid_custom_choice_is_rejected(self, choice):
        engine, cluster = calendar_cluster(Pinned(choice))
        with pytest.raises(SimulationError, match="invalid.*node"):
            submit_block(cluster, engine, [0])
        assert cluster.bank._calendar is not None

    def test_draining_custom_choice_is_rejected(self):
        engine, cluster = calendar_cluster(Pinned(1), fleet=parse_fleet_events("leave:1@1"))
        submit_block(cluster, engine, [0])  # node 1 live: accepted
        assert cluster.bank._calendar is not None
        engine.run_until(1.5)  # node 1 leaves with work queued
        assert cluster.node_state(1) == "draining"
        with pytest.raises(SimulationError, match="draining node 1"):
            submit_block(cluster, engine, [0])


class TestTieOrder:
    """Exact ties on the block route's single merge of every (node, class)
    server: completions log in ``(time, node, class)`` order, and nodes
    that finish draining at one instant flip in node order."""

    @staticmethod
    def run(fleet=None):
        # Four requests per class at t=0; round robin alternates the nodes,
        # so every (node, class) server serves two of them at rate 0.5: all
        # four servers complete at t=1 and again at t=2.  The unit node
        # capacities clamp a lone survivor's doubled shares back to 0.5.
        classes = make_classes(Deterministic(0.5), 0.5, (1.0, 2.0))
        sources = [TraceSource(c, interarrivals=[0.0] * 4, sizes=[0.5] * 4) for c in (0, 1)]
        cluster = make_cluster(2, "round_robin", capacities=(1.0, 1.0), fleet=fleet)
        config = MeasurementConfig(warmup=0.0, horizon=5.0, window=5.0)
        controller = StaticRateController((1.0, 1.0))
        return Scenario(
            classes, config, server=cluster, controller=controller, sources=sources
        ).run()

    def test_tied_completions_log_in_time_node_class_order(self):
        ledger = self.run().ledger
        done = ledger.completed_ids
        keys = list(
            zip(
                ledger.completion_time[done].tolist(),
                ledger.node[done].tolist(),
                ledger.class_index[done].tolist(),
            )
        )
        assert keys == [(t, n, c) for t in (1.0, 2.0) for n in (0, 1) for c in (0, 1)]
        # Within a server the rows still complete FCFS.
        assert done.tolist() == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_nodes_emptying_in_reverse_node_order_flip_in_time_order(self):
        """Two draining nodes go idle inside one sync, node 1 before node 0:
        the flips land in ``(time, node)`` order, so the fleet timeline as
        recorded never goes back in time."""
        classes = make_classes(Deterministic(0.5), 0.5, (1.0, 2.0))
        # Round robin sends the long class-0 request to node 0 and the short
        # class-1 one to node 1; both nodes leave with them in service.
        sources = [
            TraceSource(0, interarrivals=[0.0], sizes=[2.0]),
            TraceSource(1, interarrivals=[0.0], sizes=[0.5]),
        ]
        fleet = parse_fleet_events("leave:0@0.5 leave:1@0.5")
        cluster = make_cluster(2, "round_robin", capacities=(1.0, 1.0), fleet=fleet)
        config = MeasurementConfig(warmup=0.0, horizon=5.0, window=5.0)
        controller = StaticRateController((1.0, 1.0))
        result = Scenario(
            classes, config, server=cluster, controller=controller, sources=sources
        ).run()
        times = [time for time, _, _ in result.fleet_timeline]
        assert times == sorted(times)
        assert [(time, states) for time, states, _ in result.fleet_timeline[-2:]] == [
            (1.0, (NODE_DRAINING, NODE_DOWN)),
            (4.0, (NODE_DOWN, NODE_DOWN)),
        ]

    def test_nodes_emptying_at_one_instant_flip_in_node_order(self):
        # Both nodes leave mid-service and keep serving at rate 0.5.
        result = self.run(parse_fleet_events("leave:1@0.5 leave:0@0.5"))
        states = [(time, states) for time, states, _ in result.fleet_timeline]
        assert states[-2:] == [
            (2.0, (NODE_DOWN, NODE_DRAINING)),
            (2.0, (NODE_DOWN, NODE_DOWN)),
        ]
