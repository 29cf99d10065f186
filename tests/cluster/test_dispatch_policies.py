"""Unit tests for the cluster dispatch policies."""

import numpy as np
import pytest

from repro.cluster import (
    DISPATCH_POLICIES,
    ClassAffinity,
    ClusterServerModel,
    JoinShortestQueue,
    LeastWorkLeft,
    RoundRobin,
    WeightedRandom,
    build_dispatch_policy,
    make_cluster,
)
from repro.errors import SimulationError
from repro.simulation import SimulationEngine
from tests.conftest import make_classes

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


def bound_cluster(num_nodes, dispatch, num_classes=2, moderate_bp=None):
    """A cluster bound to a throwaway engine, requests never completed."""
    from repro.distributions import Deterministic

    service = moderate_bp if moderate_bp is not None else Deterministic(1.0)
    classes = make_classes(service, 0.5, tuple(range(1, num_classes + 1)))
    cluster = ClusterServerModel(
        [None] * num_nodes,
        dispatch=dispatch,
    )
    cluster.bind(SimulationEngine(), classes)
    return cluster


def rid_for(cluster, class_index=0, size=1.0):
    """A bare ledger row id, for driving select_node directly."""
    return cluster.ledger.append(class_index, 0.0, size)


def submit(cluster, class_index=0, size=1.0):
    """Dispatch one request arriving at t=0 as a one-row block."""
    cluster.submit_batch(np.asarray([rid_for(cluster, class_index, size)], dtype=np.int64))


class TestRoundRobin:
    def test_cycles_node_indices(self):
        cluster = bound_cluster(3, RoundRobin())
        chosen = [cluster.dispatch.select_node(rid_for(cluster), 0) for i in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]


class TestWeightedRandom:
    def test_same_seed_same_sequence(self):
        first = bound_cluster(4, WeightedRandom(seed=123))
        second = bound_cluster(4, WeightedRandom(seed=123))
        picks_a = [first.dispatch.select_node(rid_for(first), 0) for i in range(50)]
        picks_b = [second.dispatch.select_node(rid_for(second), 0) for i in range(50)]
        assert picks_a == picks_b
        assert set(picks_a) == {0, 1, 2, 3}

    def test_weights_steer_the_draw(self):
        cluster = bound_cluster(2, WeightedRandom([0.0, 1.0], seed=5))
        picks = {cluster.dispatch.select_node(rid_for(cluster), 0) for i in range(30)}
        assert picks == {1}

    def test_weight_validation(self):
        with pytest.raises(SimulationError):
            bound_cluster(2, WeightedRandom([0.5, 0.5, 0.5]))
        with pytest.raises(SimulationError):
            bound_cluster(2, WeightedRandom([-1.0, 2.0]))
        with pytest.raises(SimulationError):
            bound_cluster(2, WeightedRandom([0.0, 0.0]))


class TestJoinShortestQueue:
    def test_follows_per_class_pending(self):
        cluster = bound_cluster(3, JoinShortestQueue())
        # Submitted requests stay pending (nodes hold them in service/queue).
        submit(cluster, class_index=0)  # JSQ all-zero -> node 0
        submit(cluster, class_index=0)  # node 1 now shortest
        submit(cluster, class_index=0)  # node 2
        assert cluster.ledger.node.tolist() == [0, 1, 2]

    def test_ties_break_to_lowest_node_index(self):
        cluster = bound_cluster(4, JoinShortestQueue())
        assert cluster.dispatch.select_node(rid_for(cluster), 0) == 0
        submit(cluster, class_index=1)  # pending only for class 1
        # Class 0 still sees all-equal (zero) pending: node 0 again.
        assert cluster.dispatch.select_node(rid_for(cluster, class_index=0), 0) == 0

    def test_pending_is_per_class(self):
        cluster = bound_cluster(2, JoinShortestQueue())
        submit(cluster, class_index=0)  # class-0 tie -> node 0
        submit(cluster, class_index=1)  # class-1 tie -> node 0
        # Node 0 now holds one request of each class, so the next class-0
        # request sees per-class pending (1, 0) and goes to node 1.
        assert cluster.pending(0, 0) == 1 and cluster.pending(0, 1) == 1
        assert cluster.dispatch.select_node(rid_for(cluster, class_index=0), 0) == 1


class TestLeastWorkLeft:
    def test_prefers_least_outstanding_work(self):
        cluster = bound_cluster(2, LeastWorkLeft())
        submit(cluster, class_index=0, size=5.0)  # node 0
        assert cluster.dispatch.select_node(rid_for(cluster, size=1.0), 0) == 1
        submit(cluster, class_index=1, size=1.0)  # node 1 (1.0 left)
        assert cluster.dispatch.select_node(rid_for(cluster, size=1.0), 0) == 1

    def test_ties_break_to_lowest_node_index(self):
        cluster = bound_cluster(3, LeastWorkLeft())
        assert cluster.dispatch.select_node(rid_for(cluster), 0) == 0


class TestClassAffinity:
    def test_default_partition_is_modulo(self):
        cluster = bound_cluster(2, ClassAffinity(), num_classes=3)
        assert cluster.dispatch.partition == (0, 1, 0)
        assert cluster.dispatch.select_node(rid_for(cluster, class_index=2), 2) == 0

    def test_explicit_partition_routes_classes(self):
        cluster = bound_cluster(3, ClassAffinity((2, 0)))
        submit(cluster, class_index=0)
        submit(cluster, class_index=1)
        assert cluster.dispatch_counts()[2][0] == 1
        assert cluster.dispatch_counts()[0][1] == 1

    def test_partition_length_validated(self):
        with pytest.raises(SimulationError, match="partition maps"):
            bound_cluster(2, ClassAffinity((0,)), num_classes=2)

    def test_partition_range_validated(self):
        with pytest.raises(SimulationError, match="out of range"):
            bound_cluster(2, ClassAffinity((0, 2)))
        with pytest.raises(SimulationError, match="out of range"):
            bound_cluster(2, ClassAffinity((0, -1)))

    def test_partition_type_validated(self):
        with pytest.raises(SimulationError, match="node index"):
            bound_cluster(2, ClassAffinity((0, 1.5)))


class TestPolicyLifecycle:
    def test_policies_cannot_be_rebound(self):
        policy = RoundRobin()
        bound_cluster(2, policy)
        with pytest.raises(SimulationError, match="already bound"):
            bound_cluster(2, policy)

    def test_registry_builds_every_policy(self):
        for name in DISPATCH_POLICIES:
            policy = build_dispatch_policy(name, seed=9)
            cluster = bound_cluster(2, policy)
            node = cluster.dispatch.select_node(rid_for(cluster), 0)
            assert 0 <= node < 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError, match="unknown dispatch policy"):
            build_dispatch_policy("fifo")
        with pytest.raises(SimulationError, match="unknown dispatch policy"):
            make_cluster(2, "fifo")
