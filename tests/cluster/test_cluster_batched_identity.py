"""Differential matrix: the batched cluster pipeline must be bit-identical
to the per-event reference simulator.

The cluster's pipeline (arrival blocks segmented at estimation windows and
fleet-event instants, vectorised ``select_block`` dispatch for
counter/weight policies, exact scalar replay for backlog-dependent ones)
re-orders the float arithmetic of one engine event per arrival and per
completion (:mod:`tests.reference`) — it must never change a single
dispatch decision, rate vector, fleet transition or ledger byte.  These
tests pin that contract across {every dispatch policy} x {every rate
partitioner} x {static fleet, churn} x {serial, workers=2}, plus the
fleet-event tie rule at an arrival instant and a class frozen at rate zero
on the completion calendar.
"""

import numpy as np
import pytest

from repro.cluster import DISPATCH_POLICIES, make_cluster, parse_fleet_events
from repro.cluster.partition import PARTITIONERS, build_partitioner
from repro.core import PsdSpec
from repro.distributions import BoundedPareto
from repro.experiments import ClusterScalingBuild
from repro.simulation import (
    MeasurementConfig,
    ReplicationRunner,
    Scenario,
    StaticRateController,
)
from repro.simulation.generator import TraceSource
from repro.types import TrafficClass
from tests.conftest import make_classes
from tests.reference import ReferenceScenario, reference_build

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

POLICIES = sorted(DISPATCH_POLICIES)

CFG = MeasurementConfig(warmup=300.0, horizon=1_500.0, window=300.0)

#: Every fleet event class inside the shortened horizon: node 0 leaves and
#: rejoins, node 2 degrades — each instant is a segmentation boundary the
#: batched path must split arrival blocks at.
CHURN = parse_fleet_events("leave:0@450 join:0@750 set_capacity:2=0.2@1050")

#: Policy x partitioner matrix: every policy against every registry
#: partitioner, plus the affinity policy with its own preferred
#: ``AffinityPartitioner`` (``None`` lets the cluster pick it).
CELLS = [(policy, name) for policy in POLICIES for name in sorted(PARTITIONERS)]
CELLS.append(("affinity", None))


@pytest.fixture(scope="module")
def det_classes():
    return make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.7, (1.0, 2.0))


def _run(det_classes, policy, partitioner, fleet, scenario_class=Scenario):
    server = make_cluster(
        3,
        policy,
        partitioner=None if partitioner is None else build_partitioner(partitioner),
        seed=77,
        record_dispatch=True,
        fleet=fleet,
    )
    return scenario_class(
        det_classes,
        CFG,
        server=server,
        spec=PsdSpec.of(1, 2),
        seed=42,
    ).run()


def _fingerprint(result) -> str:
    """Full-float repr of everything the run produced, ledger bytes included."""
    ledger = result.ledger
    parts = [
        repr(result.per_class_mean_slowdowns()),
        repr(result.per_class_mean_waiting_times()),
        repr(result.per_class_completed_work()),
        repr(result.rate_history),
        repr(result.generated_counts),
        repr(result.completed_counts),
        repr(result.dispatch_log),
        repr(result.fleet_timeline),
        repr(len(ledger)),
        repr(ledger.num_completed),
        ledger.arrival_time.tobytes().hex(),
        ledger.size.tobytes().hex(),
        ledger.class_index.tobytes().hex(),
        ledger.service_start_time.tobytes().hex(),
        ledger.completion_time.tobytes().hex(),
        ledger.completed_ids.tobytes().hex(),
    ]
    return "|".join(parts)


class TestSerialMatrix:
    @pytest.mark.parametrize("policy,partitioner", CELLS)
    def test_static_fleet_is_bit_identical(self, policy, partitioner, det_classes):
        batched = _run(det_classes, policy, partitioner, None)
        per_event = _run(det_classes, policy, partitioner, None, ReferenceScenario)
        assert _fingerprint(batched) == _fingerprint(per_event)
        assert batched.ledger.num_completed > 50

    @pytest.mark.parametrize("policy,partitioner", CELLS)
    def test_churn_is_bit_identical(self, policy, partitioner, det_classes):
        batched = _run(det_classes, policy, partitioner, CHURN)
        per_event = _run(det_classes, policy, partitioner, CHURN, ReferenceScenario)
        assert _fingerprint(batched) == _fingerprint(per_event)
        # The churn actually happened on both paths.
        states = [entry[1] for entry in batched.fleet_timeline]
        assert any(state[0] != "live" for state in states)


class TestReplicatedMatrix:
    """workers=2 batched replications match the serial per-event oracle."""

    @pytest.mark.parametrize("policy", ["round_robin", "jsq"])
    def test_parallel_batched_matches_serial_per_event(self, policy, det_classes):
        build = ClusterScalingBuild(
            tuple(det_classes),
            CFG,
            PsdSpec.of(1, 2),
            num_nodes=3,
            policy=policy,
            dispatch_entropy=123,
            fleet=CHURN,
            record_dispatch=True,
        )
        parallel = ReplicationRunner(replications=3, base_seed=31, workers=2).run(build)
        serial = ReplicationRunner(replications=3, base_seed=31, workers=1).run(
            reference_build(build)
        )
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        for batched_result, per_event_result in zip(parallel.results, serial.results):
            assert batched_result.dispatch_log == per_event_result.dispatch_log
            assert batched_result.rate_history == per_event_result.rate_history
            assert batched_result.fleet_timeline == per_event_result.fleet_timeline
            assert batched_result.generated_counts == per_event_result.generated_counts


class TestFleetEventAtArrivalInstant:
    """An arrival landing exactly on a fleet-event instant dispatches under
    the *post-event* fleet.

    Bind-time fleet events carry a lower engine sequence number than any
    later-scheduled arrival event at the same instant, so the reference
    applies the event first; the pipeline reproduces this by cutting the
    arrival block *at* the event instant and scheduling the tail block at
    that time (the event callback, scheduled earlier, still fires first).
    """

    CLASSES = (TrafficClass("only", 0.5, BoundedPareto(0.3, 5.0, 1.5), 1.0),)
    TIE_CFG = MeasurementConfig(warmup=0.0, horizon=10.0, window=10.0)

    def _run(self, scenario_class):
        # Arrivals at t=4, 5, 6; node 1 leaves at exactly t=5.0.
        source = TraceSource(0, interarrivals=[4.0, 1.0, 1.0], sizes=[0.5, 0.5, 0.5])
        cluster = make_cluster(
            3,
            "round_robin",
            fleet=parse_fleet_events("leave:1@5.0"),
            record_dispatch=True,
            seed=1,
        )
        result = scenario_class(
            self.CLASSES,
            self.TIE_CFG,
            server=cluster,
            seed=5,
            sources=[source],
        ).run()
        return result

    @pytest.mark.parametrize(
        "scenario_class", [ReferenceScenario, Scenario], ids=["reference", "batched"]
    )
    def test_tied_arrival_sees_post_event_fleet(self, scenario_class):
        result = self._run(scenario_class)
        # Round-robin cursor sits at node 1 for the t=5 arrival, but node 1
        # is already down at that instant — the arrival must skip to node 2.
        assert result.dispatch_log == [0, 2, 0]
        assert result.fleet_timeline[-1][1] == ("live", "down", "live")

    def test_batched_matches_per_event(self):
        assert _fingerprint(self._run(Scenario)) == _fingerprint(self._run(ReferenceScenario))


class ScriptedRates(StaticRateController):
    """Window ``k`` (counted from 0) runs at ``script[min(k, len - 1)]``."""

    def __init__(self, script) -> None:
        super().__init__(script[0])
        self.script = script

    def observe_window(self, time, window_length, arrivals, work, slowdowns=None):
        super().observe_window(time, window_length, arrivals, work, slowdowns)
        self._rates = self.script[min(self.observations, len(self.script) - 1)]


class TestZeroRateOnCalendar:
    """A class frozen at rate zero, then thawed, on the completion calendar.

    Class 1 has rate 0 for the first two windows: the calendar books none of
    its completions, the head of each node's class-1 queue starts service at
    its arrival (frozen) and later arrivals queue behind it.  At t=4 the
    rate turns positive, the calendar is rebuilt from the members, and each
    frozen head completes at its full size over the new per-node rate.
    """

    CLASSES = (
        TrafficClass("gold", 0.5, BoundedPareto(0.3, 5.0, 1.5), 1.0),
        TrafficClass("bronze", 0.5, BoundedPareto(0.3, 5.0, 1.5), 2.0),
    )
    ZERO_CFG = MeasurementConfig(warmup=0.0, horizon=12.0, window=2.0)
    #: Off the arrival grid, so no completion ties an arrival.
    SIZES = (np.sqrt(2) / 6, np.sqrt(3) / 4, np.sqrt(5) / 4)

    def _run(self, scenario_class):
        sources = [
            TraceSource(0, interarrivals=[0.3, 0.7, 0.9, 1.1, 1.6, 2.4], sizes=self.SIZES * 2),
            TraceSource(
                1,
                interarrivals=[0.55, 0.2, 0.6, 0.4, 1.5, 3.0],
                sizes=self.SIZES[::-1] * 2,
            ),
        ]
        cluster = make_cluster(2, "weighted_jsq", record_dispatch=True, seed=1)
        result = scenario_class(
            self.CLASSES,
            self.ZERO_CFG,
            server=cluster,
            controller=ScriptedRates([(1.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),
            seed=5,
            sources=sources,
        ).run()
        return cluster, result

    def test_frozen_heads_start_at_arrival_and_complete_at_the_new_rate(self):
        cluster, result = self._run(Scenario)
        assert cluster._calendar is not None
        ledger = result.ledger
        log = np.asarray(result.dispatch_log)
        frozen = 0
        for node in (0, 1):
            rows = np.flatnonzero((ledger.class_index == 1) & (log == node))
            early = rows[ledger.arrival_time[rows] < 4.0]
            assert early.size >= 2  # a frozen head with work queued behind it
            head = int(early[0])
            assert ledger.start_of(head) == ledger.arrival_of(head)
            # Equal split of class 1's unit rate over two nodes: 0.5 each.
            assert ledger.completion_of(head) == 4.0 + ledger.size_of(head) / 0.5
            frozen += 1
            # Nothing behind the frozen head started before the thaw.
            assert np.all(ledger.service_start_time[early[1:]] >= 4.0)
        assert frozen == 2
        assert result.rate_history[:3] == [(0.0, (1.0, 0.0)), (2.0, (1.0, 0.0)), (4.0, (1.0, 1.0))]

    def test_matches_the_per_event_reference(self):
        _, batched = self._run(Scenario)
        _, per_event = self._run(ReferenceScenario)
        assert _fingerprint(batched) == _fingerprint(per_event)
        assert batched.ledger.num_completed == len(batched.ledger)


class TestExactCompletionTies:
    """Deterministic traces whose completions tie exactly: two classes on
    one node, and two nodes of a block-route cluster, finish at the same
    instants.  The completion log keeps ``(time, node, class)`` order, and
    the run matches the per-event reference.

    Class 0 arrives at t=7 and class 1 at t=7.5 with shorter first requests,
    so at rate 0.5 every class server completes at t = 9, 11, 13, ...  The
    first window boundary (t=8) re-applies the rates while every server is
    busy, which schedules the reference's completion events in ``(node,
    class)`` order, the order they keep from then on.  Each class server
    queues 40 rows at once, so the early drains take the bulk fold, and
    each later boundary (t = 16, 24, ...) carries a row of every class
    server and folds three fresh ones behind it.
    """

    CLASSES = tuple(
        TrafficClass(f"c{i}", 0.5, BoundedPareto(0.3, 5.0, 1.5), float(i + 1)) for i in range(2)
    )
    TIE_CFG = MeasurementConfig(warmup=0.0, horizon=96.0, window=8.0)

    def _run(self, scenario_class, nodes):
        # A node's class server queues 40 rows; its first request of class
        # 1 is 0.5 shorter, so it completes at t=3 like class 0's.
        per_class = 40 * nodes
        sources = [
            TraceSource(0, interarrivals=[7.0] + [0.0] * (per_class - 1), sizes=[1.0] * per_class),
            TraceSource(
                1,
                interarrivals=[7.5] + [0.0] * (per_class - 1),
                sizes=[0.75] * nodes + [1.0] * (per_class - nodes),
            ),
        ]
        server = make_cluster(nodes, "round_robin", record_dispatch=True, seed=1)
        result = scenario_class(
            self.CLASSES,
            self.TIE_CFG,
            server=server,
            controller=StaticRateController((0.5 * nodes, 0.5 * nodes)),
            seed=5,
            sources=sources,
        ).run()
        return result

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_ties_keep_time_node_class_order(self, nodes):
        result = self._run(Scenario, nodes)
        ledger = result.ledger
        done = ledger.completed_ids
        assert done.size == 80 * nodes
        times = ledger.completion_time[done]
        node_of = np.asarray(result.dispatch_log)[done]
        class_of = ledger.class_index[done]
        # Every instant t = 9, 11, ..., 87 completes one row per class server.
        assert times.tolist() == [float(t) for t in range(9, 89, 2) for _ in range(2 * nodes)]
        keys = list(zip(times.tolist(), node_of.tolist(), class_of.tolist()))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_matches_the_per_event_reference(self, nodes):
        assert _fingerprint(self._run(Scenario, nodes)) == _fingerprint(
            self._run(ReferenceScenario, nodes)
        )
