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
fleet-event tie rule at an arrival instant.
"""

import numpy as np
import pytest

from repro.cluster import DISPATCH_POLICIES, make_cluster, parse_fleet_events
from repro.cluster.partition import PARTITIONERS, build_partitioner
from repro.core import PsdSpec
from repro.distributions import BoundedPareto
from repro.experiments import ClusterScalingBuild
from repro.simulation import MeasurementConfig, ReplicationRunner, Scenario
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
