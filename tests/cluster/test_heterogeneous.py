"""Heterogeneous clusters: per-node capacities end to end.

Covers the capacity plumbing (server models, cluster view, ``make_cluster``),
the clamp semantics of over-subscribed rate-scalable nodes, the
capacity-aware dispatch policies, and the two reproducibility contracts the
feature ships with: heterogeneous runs are deterministic (serial and under
the parallel runner), and homogeneous capacities reproduce the capacity-less
cluster bit for bit.
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    CAPACITY_MIXES,
    CapacityProportional,
    CapacityWeightedJsq,
    ClusterServerModel,
    EqualSplit,
    FastestAvailable,
    WeightedRandom,
    make_cluster,
    mix_label,
    resolve_capacities,
)
from repro.core import PsdSpec
from repro.errors import SimulationError
from repro.experiments import ClusterScalingBuild
from repro.scheduling import WeightedFairQueueing
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    ReplicationRunner,
    Scenario,
    SharedProcessorServer,
    SimulationEngine,
)
from tests.conftest import make_classes

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

CFG = MeasurementConfig(warmup=300.0, horizon=2_500.0, window=300.0)


def bound_cluster(dispatch=None, capacities=(1.0, 1.0), num_classes=2, **kwargs):
    from repro.distributions import Deterministic

    classes = make_classes(Deterministic(1.0), 0.5, tuple(range(1, num_classes + 1)))
    cluster = make_cluster(
        len(capacities),
        dispatch if dispatch is not None else "round_robin",
        capacities=capacities,
        **kwargs,
    )
    cluster.bind(SimulationEngine(), classes)
    return cluster


def submit(cluster, class_index=0, size=1.0):
    """Dispatch one request arriving at t=0 as a one-row block."""
    rid = cluster.ledger.append(class_index, 0.0, size)
    cluster.submit_batch(np.asarray([rid], dtype=np.int64))


class TestCapacityPlumbing:
    def test_rate_scalable_accepts_capacity(self):
        assert RateScalableServers().capacity is None
        assert RateScalableServers(capacity=0.25).capacity == 0.25

    @pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan])
    def test_members_reject_non_positive_capacity(self, capacity):
        with pytest.raises(SimulationError, match="capacity"):
            RateScalableServers(capacity=capacity)
        with pytest.raises(SimulationError, match="capacity"):
            SharedProcessorServer(WeightedFairQueueing(2), capacity=capacity)

    def test_cluster_exposes_node_capacities(self):
        cluster = bound_cluster(capacities=(0.75, 0.25))
        assert cluster.capacities == (0.75, 0.25)
        assert cluster.node_capacity(0) == 0.75

    def test_undeclared_capacities_weigh_one(self):
        cluster = ClusterServerModel([None, None])
        assert cluster.capacities == (1.0, 1.0)

    def test_make_cluster_validates_capacities(self):
        with pytest.raises(SimulationError, match="expected 2"):
            make_cluster(2, capacities=(1.0,))
        with pytest.raises(SimulationError, match="non-positive"):
            make_cluster(2, capacities=(1.0, 0.0))
        with pytest.raises(SimulationError, match="non-positive"):
            make_cluster(2, capacities=(1.0, float("nan")))


class TestResolveCapacities:
    def test_named_mixes(self):
        assert resolve_capacities("uniform", 4) is None
        assert resolve_capacities("2:1", 2) == pytest.approx((2 / 3, 1 / 3))
        assert resolve_capacities("2:1", 4) == pytest.approx((2 / 6, 2 / 6, 1 / 6, 1 / 6))
        assert resolve_capacities("pow2", 3) == pytest.approx((4 / 7, 2 / 7, 1 / 7))
        assert sorted(CAPACITY_MIXES) == ["2:1", "pow2", "uniform"]

    def test_explicit_weights_normalise_to_total(self):
        caps = resolve_capacities((3.0, 1.0), 2, total=2.0)
        assert caps == pytest.approx((1.5, 0.5))
        assert sum(caps) == pytest.approx(2.0)

    def test_all_equal_weights_collapse_to_uniform(self):
        # Exactness contract: a homogeneous fleet is returned as None so it
        # is *bit-identical* to the unconstrained cluster, not merely close.
        assert resolve_capacities((1.0, 1.0, 1.0), 3) is None
        assert resolve_capacities("2:1", 1) is None

    def test_rejects_bad_specs(self):
        with pytest.raises(SimulationError, match="unknown capacity mix"):
            resolve_capacities("3:2:1", 2)
        with pytest.raises(SimulationError, match="non-positive"):
            resolve_capacities((1.0, 0.0), 2)
        with pytest.raises(SimulationError, match="non-positive"):
            resolve_capacities((1.0, -2.0), 2)
        with pytest.raises(SimulationError, match="expected 3"):
            resolve_capacities((1.0, 2.0), 3)
        with pytest.raises(SimulationError, match="num_nodes"):
            resolve_capacities("2:1", 0)
        with pytest.raises(SimulationError, match="total"):
            resolve_capacities((2.0, 1.0), 2, total=0.0)

    def test_mix_label(self):
        assert mix_label(None) == "uniform"
        assert mix_label("pow2") == "pow2"
        assert mix_label((2.0, 1.0)) == "2:1"
        assert mix_label((1.5, 0.5)) == "1.5:0.5"


class TestCapacityClamp:
    def test_rates_within_capacity_are_realised_verbatim(self):
        node = RateScalableServers(capacity=1.0)
        node.bind(
            SimulationEngine(),
            make_classes(_unit_service(), 0.5, (1.0, 2.0)),
        )
        node.apply_rates((0.6, 0.4))
        assert node.rates == [0.6, 0.4]

    def test_oversubscribed_rates_scale_to_capacity(self):
        node = RateScalableServers(capacity=0.5)
        node.bind(
            SimulationEngine(),
            make_classes(_unit_service(), 0.5, (1.0, 2.0)),
        )
        node.apply_rates((0.6, 0.4))
        # Proportional sharing of the physical speed: 0.5 / (0.6 + 0.4).
        assert node.rates == pytest.approx([0.3, 0.2])
        assert sum(node.rates) == pytest.approx(0.5)

    def test_unconstrained_node_never_clamps(self):
        node = RateScalableServers()
        node.bind(
            SimulationEngine(),
            make_classes(_unit_service(), 0.5, (1.0, 2.0)),
        )
        node.apply_rates((5.0, 7.0))
        assert node.rates == [5.0, 7.0]


def _unit_service():
    from repro.distributions import Deterministic

    return Deterministic(1.0)


class TestCapacityAwareDispatch:
    def test_weighted_jsq_normalises_pending_by_capacity(self):
        cluster = bound_cluster(CapacityWeightedJsq(), capacities=(2.0, 1.0))
        # Empty cluster: tie at 0 load, lowest index wins; then the idle
        # node 1 (0 < 1/2).
        submit(cluster)
        submit(cluster)
        assert cluster.ledger.node.tolist() == [0, 1]
        # Pending (1, 1): normalised loads 1/2 vs 1/1 -> node 0; then
        # (2, 1): 2/2 vs 1/1 ties -> node 0 again.  Plain JSQ would have
        # sent this fourth request to node 1.
        submit(cluster)
        submit(cluster)
        assert cluster.ledger.node.tolist() == [0, 1, 0, 0]
        # Pending (3, 1): 3/2 vs 1/1 -> node 1 finally catches up.
        submit(cluster)
        assert cluster.ledger.node.tolist() == [0, 1, 0, 0, 1]

    def test_weighted_jsq_prefers_capacity_partitioner(self):
        cluster = make_cluster(2, "weighted_jsq", capacities=(2.0, 1.0))
        assert isinstance(cluster.partitioner, CapacityProportional)
        cluster = make_cluster(2, "round_robin", capacities=(2.0, 1.0))
        assert isinstance(cluster.partitioner, EqualSplit)

    def test_weighted_jsq_matches_jsq_on_uniform_capacities(self):
        classes = make_classes(_unit_service(), 0.7, (1.0, 2.0))
        runs = {}
        for policy in ("jsq", "weighted_jsq"):
            server = make_cluster(3, policy)
            Scenario(classes, CFG, server=server, spec=PsdSpec.of(1, 2), seed=9).run()
            runs[policy] = server.ledger.node
        assert np.array_equal(runs["jsq"], runs["weighted_jsq"])

    def test_fastest_available_picks_fastest_idle_node(self):
        cluster = bound_cluster(FastestAvailable(), capacities=(1.0, 3.0, 2.0))
        submit(cluster)
        assert cluster.ledger.node.tolist() == [1]
        submit(cluster)
        assert cluster.ledger.node.tolist() == [1, 2]
        submit(cluster)
        assert cluster.ledger.node.tolist() == [1, 2, 0]

    def test_fastest_available_busy_fallback_is_capacity_normalised_eta(self):
        cluster = bound_cluster(FastestAvailable(), capacities=(1.0, 4.0))
        submit(cluster, size=1.0)  # -> node 1 (fastest idle)
        submit(cluster, size=1.0)  # -> node 0 (idle)
        # Both busy with 1 unit of work: ETAs 1/1 vs 1/4 -> node 1 again.
        submit(cluster, size=1.0)
        assert cluster.ledger.node.tolist() == [1, 0, 1]

    def test_weighted_random_defaults_to_capacity_weights(self):
        fast_cluster = bound_cluster(WeightedRandom(seed=3), capacities=(1000.0, 1.0))
        picks = {
            fast_cluster.dispatch.select_node(fast_cluster.ledger.append(0, 0.0, 1.0), 0)
            for _ in range(50)
        }
        assert picks == {0}

    def test_weighted_random_explicit_weights_override_capacities(self):
        cluster = bound_cluster(WeightedRandom([0.0, 1.0], seed=3), capacities=(1000.0, 1.0))
        picks = {
            cluster.dispatch.select_node(cluster.ledger.append(0, 0.0, 1.0), 0)
            for _ in range(30)
        }
        assert picks == {1}


class TestHeterogeneousDeterminism:
    def _build(self, **overrides):
        classes = make_classes(_moderate_service(), 0.7, (1.0, 2.0))
        defaults = dict(
            classes=tuple(classes),
            measurement=CFG,
            spec=PsdSpec.of(1, 2),
            num_nodes=2,
            policy="weighted_jsq",
            dispatch_entropy=11,
            capacities=resolve_capacities("2:1", 2),
            partitioner="capacity",
        )
        defaults.update(overrides)
        return ClusterScalingBuild(**defaults)

    @pytest.mark.parametrize(
        "policy,partitioner",
        [
            ("weighted_jsq", "capacity"),
            ("fastest_available", "capacity"),
            ("weighted_random", "backlog"),
            ("round_robin", "equal"),
        ],
    )
    def test_serial_runs_are_bit_identical(self, policy, partitioner):
        build = self._build(policy=policy, partitioner=partitioner)
        seed = np.random.SeedSequence(entropy=5)
        first = build(0, np.random.SeedSequence(entropy=5))
        second = build(0, np.random.SeedSequence(entropy=5))
        assert first.per_class_mean_slowdowns() == second.per_class_mean_slowdowns()
        assert first.rate_history == second.rate_history
        assert seed.entropy == 5  # the builds spawned their own streams

    def test_workers_do_not_change_heterogeneous_aggregates(self):
        build = self._build()
        serial = ReplicationRunner(replications=3, base_seed=31, workers=1).run(build)
        parallel = ReplicationRunner(replications=3, base_seed=31, workers=2).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        assert parallel.ratios_to_first == serial.ratios_to_first

    @pytest.mark.parametrize("policy", ["round_robin", "jsq", "weighted_random"])
    def test_homogeneous_capacities_reproduce_capacityless_cluster(self, policy):
        """Explicit uniform capacities must be *bit-identical* to no capacities.

        Uniform nodes are sized at 1.0 — comfortably above any per-node rate
        share — so the clamp never binds and the only difference could come
        from capacity-aware weighting, which must reduce to exactly the
        capacity-blind arithmetic at weight 1.0.
        """
        classes = make_classes(_moderate_service(), 0.7, (1.0, 2.0))

        def run(capacities):
            server = make_cluster(3, policy, capacities=capacities, seed=77)
            result = Scenario(classes, CFG, server=server, spec=PsdSpec.of(1, 2), seed=42).run()
            return server, result

        bare_server, bare = run(None)
        cap_server, capped = run((1.0, 1.0, 1.0))
        assert np.array_equal(cap_server.ledger.node, bare_server.ledger.node)
        assert cap_server.dispatch_counts() == bare_server.dispatch_counts()
        assert capped.per_class_mean_slowdowns() == bare.per_class_mean_slowdowns()
        assert capped.rate_history == bare.rate_history
        assert capped.generated_counts == bare.generated_counts


def _moderate_service():
    from repro.distributions import BoundedPareto

    return BoundedPareto(k=0.1, p=10.0, alpha=1.5)
