"""Admission control inside the scenario, diffed against the reference.

The scenario decides admission in one of two ways:

* ``window_scoped`` policies get one ``decide_block()`` per arrival block
  at the window boundary;
* live-state policies (``QueueLengthAdmission``) are walked arrival by
  arrival, ``decide()`` reading the backlog of each arrival instant from
  the state the server keeps (no drain), then recorded as a block.

The per-event reference (:mod:`tests.reference`) calls ``decide()`` once
per arrival event.  These tests pin the integration contract end to end:

* every shipped policy (always / load_threshold / quota / queue_length) is
  bit-identical to the reference — full ledger (including the disposition
  and node columns), shed/degrade counters — and the live walk stays
  identical across fleet cuts;
* live decisions read the backlog of the arrival instant, not of the
  window boundary;
* shed requests get ledger rows but never service; degraded requests are
  recorded under their target class with the origin tallied in
  ``degraded_counts``; ``generated_counts`` still count origins;
* telemetry admission counters, the ledger disposition column and the
  result's shed/degraded fractions agree with the reference, serial and
  under ``workers=2``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    DISPATCH_POLICIES,
    AdmissionController,
    DispatchPolicy,
    make_cluster,
    resolve_capacities,
)
from repro.core import PsdSpec
from repro.core.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    LoadThresholdAdmission,
    QueueLengthAdmission,
)
from repro.distributions import BoundedPareto, Deterministic
from repro.errors import SimulationError
from repro.scheduling import WeightedFairQueueing
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    Scenario,
    SharedProcessorServer,
    StaticRateController,
    run_replications,
)
from repro.simulation.generator import TraceSource
from repro.simulation.ledger import (
    DISPOSITION_ADMITTED,
    DISPOSITION_DEGRADED,
    DISPOSITION_SHED,
)
from repro.telemetry import Telemetry
from repro.types import TrafficClass
from tests.cluster.test_cluster_batched_identity import CHURN
from tests.conftest import make_classes
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

#: Offered work ~3.9/time against a 3.0-capacity fleet: a genuinely
#: overloaded cluster, so the quota ladder's three legs all fire.
CLASSES = (
    TrafficClass("gold", 2.5, BoundedPareto(0.3, 10.0, 1.5), 1.0),
    TrafficClass("silver", 2.5, BoundedPareto(0.3, 10.0, 1.5), 2.0),
)
CONFIG = MeasurementConfig(warmup=20.0, horizon=300.0, window=20.0)
SPEC = PsdSpec.of(1, 2)


def _cluster():
    return make_cluster(
        2,
        "weighted_jsq",
        capacities=resolve_capacities("2:1", 2),
        seed=np.random.SeedSequence(entropy=5),
    )


POLICIES = {
    "always": lambda: AlwaysAdmit(),
    "load_threshold": lambda: LoadThresholdAdmission((0.4, 10.0)),
    "quota": lambda: AdmissionController(
        (0.05, 0.05), degrade_threshold=0.0, shed_threshold=1.5
    ),
    "queue_length": lambda: QueueLengthAdmission((4, 4)),
}

#: Both ways of running a scenario, keyed for test ids.
SCENARIOS = {"batched": Scenario, "reference": ReferenceScenario}


def _run(policy_key, scenario_key="batched", *, telemetry=None, seed=11, server=None):
    scenario = SCENARIOS[scenario_key](
        CLASSES,
        CONFIG,
        server=_cluster() if server is None else server,
        spec=SPEC,
        seed=seed,
        admission=None if policy_key is None else POLICIES[policy_key](),
        telemetry=telemetry,
    )
    return scenario.run()


def _ledger_bytes(result):
    ledger = result.ledger
    return tuple(
        column.tobytes()
        for column in (
            ledger.class_index,
            ledger.arrival_time,
            ledger.size,
            ledger.service_start_time,
            ledger.completion_time,
            ledger.disposition,
        )
    )


class TestBatchedIdentity:
    @pytest.mark.parametrize("policy_key", sorted(POLICIES))
    def test_batched_matches_per_event_bit_for_bit(self, policy_key):
        batched = _run(policy_key)
        scalar = _run(policy_key, "reference")
        assert _ledger_bytes(batched) == _ledger_bytes(scalar)
        assert np.array_equal(batched.ledger.node, scalar.ledger.node)
        assert batched.rejected_counts == scalar.rejected_counts
        assert batched.degraded_counts == scalar.degraded_counts
        assert batched.degraded_into_counts == scalar.degraded_into_counts
        assert batched.generated_counts == scalar.generated_counts
        # repr-compare: a fully-shed class has a NaN mean, and NaN != NaN.
        assert repr(batched.per_class_mean_slowdowns()) == repr(
            scalar.per_class_mean_slowdowns()
        )
        assert batched.rate_history == scalar.rate_history

    def test_quota_run_exercises_all_three_legs(self):
        result = _run("quota")
        dispositions = result.ledger.disposition
        assert int((dispositions == DISPOSITION_ADMITTED).sum()) > 0
        assert int((dispositions == DISPOSITION_DEGRADED).sum()) > 0
        assert int((dispositions == DISPOSITION_SHED).sum()) > 0

    def test_load_threshold_sheds_lower_class_only(self):
        result = _run("load_threshold")
        assert result.rejected_counts[0] > 0
        assert result.rejected_counts[1] == 0


class TestDispositionAccounting:
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_ledger_agrees_with_result_counters(self, scenario_key):
        result = _run("quota", scenario_key)
        ledger = result.ledger
        dispositions = ledger.disposition
        shed = int((dispositions == DISPOSITION_SHED).sum())
        degraded = int((dispositions == DISPOSITION_DEGRADED).sum())
        assert shed == sum(result.rejected_counts)
        assert degraded == sum(result.degraded_counts) == sum(result.degraded_into_counts)
        # Degraded rows live under their *target* class; generated_counts
        # restore the origin view, so totals match row counts exactly.
        rows = np.bincount(ledger.class_index, minlength=2)
        assert sum(result.generated_counts) == int(rows.sum())
        assert result.generated_counts[0] == int(rows[0]) + result.degraded_counts[0]
        assert result.shed_fraction() == shed / sum(result.generated_counts)
        assert result.degraded_fraction() == degraded / sum(result.generated_counts)

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_shed_rows_never_enter_service(self, scenario_key):
        ledger = _run("quota", scenario_key).ledger
        shed_rows = np.flatnonzero(ledger.disposition == DISPOSITION_SHED)
        assert shed_rows.size > 0
        assert np.isnan(ledger.service_start_time[shed_rows]).all()
        assert np.isnan(ledger.completion_time[shed_rows]).all()

    def test_no_admission_leaves_dispositions_admitted(self):
        ledger = _run(None).ledger
        assert int(ledger.disposition.max(initial=0)) == DISPOSITION_ADMITTED

    def test_block_counts_match_a_scalar_count_of_the_decisions(self):
        """Block decisions tally shed, degraded-origin and degraded-target
        counts per class, with degrade targets other than the last class."""

        class Cycling(AdmissionPolicy):
            """Cycles ACCEPT, DEGRADE, SHED per class, logging each decision
            (the last class accepts instead of degrading)."""

            window_scoped = True
            targets = {0: 2, 1: 2, 2: 3}

            def __init__(self):
                self.log = []
                self.turns = [0] * 4

            def decide(self, class_index, size, obs):
                decision = AdmissionDecision(self.turns[class_index] % 3)
                self.turns[class_index] += 1
                if decision is AdmissionDecision.DEGRADE and class_index == 3:
                    decision = AdmissionDecision.ACCEPT
                self.log.append((class_index, decision))
                return decision

            def degrade_target(self, class_index):
                return self.targets[class_index]

        policy = Cycling()
        classes = make_classes(Deterministic(0.2), 0.8, (1.0, 2.0, 3.0, 4.0))
        config = MeasurementConfig(warmup=0.0, horizon=100.0, window=10.0)
        result = Scenario(classes, config, seed=4, admission=policy).run()
        shed, degraded, into = [0] * 4, [0] * 4, [0] * 4
        for origin, decision in policy.log:
            if decision is AdmissionDecision.SHED:
                shed[origin] += 1
            elif decision is AdmissionDecision.DEGRADE:
                degraded[origin] += 1
                into[policy.targets[origin]] += 1
        assert min(shed) > 0 and min(degraded[:3]) > 0
        assert result.rejected_counts == tuple(shed)
        assert result.degraded_counts == tuple(degraded)
        assert result.degraded_into_counts == tuple(into)
        assert sum(result.generated_counts) == len(policy.log)


class TestTelemetryAgreement:
    @pytest.mark.parametrize("policy_key", ["quota", "queue_length"])
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_counters_match_ledger_and_fractions(self, scenario_key, policy_key):
        telemetry = Telemetry()
        result = _run(policy_key, scenario_key, telemetry=telemetry)
        reg = telemetry.registry
        dispositions = result.ledger.disposition
        shed = int((dispositions == DISPOSITION_SHED).sum())
        degraded = int((dispositions == DISPOSITION_DEGRADED).sum())
        assert reg.counter("admission.rejected").value == shed
        assert reg.counter("admission.degraded").value == degraded
        assert reg.counter("admission.accepted").value == len(result.ledger) - shed
        # Per-origin-class breakdowns agree with the result counters.
        for c in range(2):
            assert (
                reg.counter(f"admission.class{c}.rejected").value
                == result.rejected_counts[c]
            )
            assert (
                reg.counter(f"admission.class{c}.degraded").value
                == result.degraded_counts[c]
            )
        # The run-end arrival count excludes shed rows (they never arrived
        # at a server).
        assert reg.counter("scenario.arrivals").value == len(result.ledger) - shed

    def test_both_paths_feed_identical_counters(self):
        values = {}
        for scenario_key in SCENARIOS:
            telemetry = Telemetry()
            _run("quota", scenario_key, telemetry=telemetry)
            values[scenario_key] = {
                name: telemetry.registry.counter(name).value
                for name in (
                    "admission.accepted",
                    "admission.degraded",
                    "admission.rejected",
                    "admission.class0.rejected",
                    "admission.class1.rejected",
                )
            }
        assert values["batched"] == values["reference"]


class TestWorkers:
    def test_worker_pool_reproduces_serial_admission_run(self):
        def build(scenario_key):
            def run(index, seed):
                return _run("quota", scenario_key, seed=seed)

            return run

        serial = run_replications(build("batched"), replications=2, workers=1)
        forked = run_replications(build("batched"), replications=2, workers=2)
        per_event = run_replications(build("reference"), replications=2, workers=2)
        for a, b in zip(serial.results, forked.results):
            assert _ledger_bytes(a) == _ledger_bytes(b)
            assert a.rejected_counts == b.rejected_counts
            assert a.degraded_counts == b.degraded_counts
        assert serial.per_class_slowdowns == forked.per_class_slowdowns
        # ... and the reference under workers matches too (transport
        # carries the disposition column faithfully).
        for a, b in zip(serial.results, per_event.results):
            assert _ledger_bytes(a) == _ledger_bytes(b)


def _assert_same_run(walk, reference):
    assert _ledger_bytes(walk) == _ledger_bytes(reference)
    assert np.array_equal(walk.ledger.node, reference.ledger.node)
    assert walk.fleet_timeline == reference.fleet_timeline
    assert walk.rate_history == reference.rate_history
    assert walk.rejected_counts == reference.rejected_counts
    assert walk.generated_counts == reference.generated_counts


class TestLiveAdmissionWalk:
    """Live-state admission runs as a per-arrival walk inside each block
    segment; it must replay the reference's decisions exactly."""

    SERVERS = {
        "fcfs": lambda: RateScalableServers(),
        "weighted_jsq-2:1": _cluster,
    }

    @pytest.mark.parametrize("server_key", sorted(SERVERS))
    def test_walk_matches_reference(self, server_key):
        factory = self.SERVERS[server_key]
        walk = _run("queue_length", server=factory())
        reference = _run("queue_length", "reference", server=factory())
        _assert_same_run(walk, reference)
        assert sum(walk.rejected_counts) > 0

    class Recording(QueueLengthAdmission):
        """Queue-length admission that logs every backlog it decides on."""

        def __init__(self, limits):
            super().__init__(limits)
            self.reads = []

        def decide(self, class_index, size, obs):
            self.reads.append(obs.backlogs)
            return super().decide(class_index, size, obs)

    @pytest.mark.parametrize("server_key", sorted(SERVERS))
    def test_backlog_reads_match_reference(self, server_key):
        """Every backlog a live decision reads equals the per-event
        reference's, read from its queues at the arrival event."""

        def run(scenario_class):
            policy = self.Recording((4, 4))
            scenario = scenario_class(
                CLASSES,
                CONFIG,
                server=self.SERVERS[server_key](),
                spec=SPEC,
                seed=11,
                admission=policy,
            )
            return scenario.run(), scenario.server, policy.reads

        walk, server, walk_reads = run(Scenario)
        reference, reference_server, reference_reads = run(ReferenceScenario)
        _assert_same_run(walk, reference)
        assert len(walk_reads) > 100 and any(map(any, walk_reads))
        assert walk_reads == reference_reads
        # The walk ran on the bank's completion calendar, which keeps every
        # unfinished row: after the run its backlog is the reference's.
        assert getattr(server, "bank", server)._calendar is not None
        assert server.backlogs() == reference_server.backlogs()
        assert any(server.backlogs())

    def test_a_shared_processor_refuses_a_live_policy(self):
        with pytest.raises(SimulationError, match="QueueLengthAdmission.*SharedProcessorServer"):
            Scenario(
                CLASSES,
                CONFIG,
                server=SharedProcessorServer(WeightedFairQueueing(2), capacity=3.0),
                spec=SPEC,
                admission=QueueLengthAdmission((4, 4)),
            )

    def test_walk_segments_at_fleet_cuts_match_reference(self):
        # CHURN's events fall mid-window, so segments start at fleet cuts.
        classes = make_classes(BoundedPareto(0.1, 10.0, 1.5), 0.9, (1.0, 2.0))
        config = MeasurementConfig(warmup=300.0, horizon=1_500.0, window=300.0)

        def run(scenario_class):
            cluster = make_cluster(3, "round_robin", fleet=CHURN, seed=2)
            return scenario_class(
                classes,
                config,
                server=cluster,
                spec=SPEC,
                seed=4,
                admission=QueueLengthAdmission((2, 2)),
            ).run()

        walk = run(Scenario)
        _assert_same_run(walk, run(ReferenceScenario))
        assert sum(walk.rejected_counts) > 0
        assert any(state[0] != "live" for _, state, _ in walk.fleet_timeline)

    def test_decisions_read_the_arrival_instant_backlog(self):
        """The backlog reaches the limit mid-window and falls again before
        the next boundary; a boundary-backlog decision would admit all."""
        # Unit-size requests at rate 1: A (0.5) serves until 1.5; B and C
        # queue (backlog 2), so D (0.8) is shed.  A completes at 1.5, so E
        # (1.55) sees backlog 1 and is admitted, F (1.6) is shed again.  By
        # G (4.05) the queue has drained and G is admitted.
        gaps = [0.5, 0.1, 0.1, 0.1, 0.75, 0.05, 2.45]
        classes = (TrafficClass("only", 0.5, Deterministic(1.0), 1.0),)
        config = MeasurementConfig(warmup=0.0, horizon=10.0, window=10.0)

        def run(scenario_class):
            return scenario_class(
                classes,
                config,
                controller=StaticRateController((1.0,)),
                sources=[TraceSource(0, interarrivals=gaps, sizes=[1.0] * len(gaps))],
                admission=QueueLengthAdmission((2,)),
            ).run()

        walk = run(Scenario)
        assert walk.ledger.disposition.tolist() == [
            DISPOSITION_ADMITTED,
            DISPOSITION_ADMITTED,
            DISPOSITION_ADMITTED,
            DISPOSITION_SHED,
            DISPOSITION_ADMITTED,
            DISPOSITION_SHED,
            DISPOSITION_ADMITTED,
        ]
        assert walk.rejected_counts == (2,)
        _assert_same_run(walk, run(ReferenceScenario))

    class Degrading(AdmissionPolicy):
        """A live policy on both non-accept legs: class 0 degrades to class
        1 once its backlog reaches 2, class 1 is shed once its backlog
        reaches 3."""

        window_scoped = False

        def decide(self, class_index, size, obs):
            if class_index == 0:
                if obs.backlogs[0] >= 2:
                    return AdmissionDecision.DEGRADE
                return AdmissionDecision.ACCEPT
            if obs.backlogs[1] >= 3:
                return AdmissionDecision.SHED
            return AdmissionDecision.ACCEPT

    @pytest.mark.parametrize(
        "server_key", ["fcfs", "weighted_jsq-2:1", "round_robin-churn", "affinity"]
    )
    def test_a_degrading_policy_matches_reference(self, server_key):
        """Also on ``affinity``, whose chooser routes a degraded row by the
        class it is served at before the row is written."""
        classes, config = CLASSES, CONFIG
        if server_key == "round_robin-churn":
            classes = make_classes(BoundedPareto(0.1, 10.0, 1.5), 0.9, (1.0, 2.0))
            config = MeasurementConfig(warmup=300.0, horizon=1_500.0, window=300.0)

        def run(scenario_class):
            if server_key == "round_robin-churn":
                server = make_cluster(3, "round_robin", fleet=CHURN, seed=2)
            elif server_key == "affinity":
                server = make_cluster(2, "affinity")
            else:
                server = self.SERVERS[server_key]()
            return scenario_class(
                classes, config, server=server, spec=SPEC, seed=4, admission=self.Degrading()
            ).run()

        walk = run(Scenario)
        reference = run(ReferenceScenario)
        _assert_same_run(walk, reference)
        assert walk.degraded_counts == reference.degraded_counts
        assert walk.degraded_into_counts == reference.degraded_into_counts
        assert walk.degraded_counts[0] > 0 and walk.rejected_counts[1] > 0

    class ByRowId(DispatchPolicy):
        """A custom policy implementing only ``select_node``, on the row id
        alone: the walk must hand it the id the row is then written under."""

        def select_node(self, rid, class_index):
            live = self.cluster.live_nodes
            return live[rid % len(live)]

    @pytest.mark.parametrize("live_policy", ["queue_length", "degrading"])
    @pytest.mark.parametrize("dispatch", [*sorted(DISPATCH_POLICIES), "custom"])
    def test_every_dispatch_policy_walks_on_the_calendar(self, dispatch, live_policy):
        """Under a live policy every dispatch policy, blind ones included,
        routes the walk's admitted rows through its chooser on the
        completion calendar, as the reference routes them one by one."""

        def run(scenario_class):
            policy = self.ByRowId() if dispatch == "custom" else dispatch
            cluster = make_cluster(
                3,
                policy,
                capacities=resolve_capacities([3.0, 2.0, 1.0], 3),
                seed=np.random.SeedSequence(entropy=5),
            )
            admission = (
                QueueLengthAdmission((3, 3)) if live_policy == "queue_length" else self.Degrading()
            )
            scenario = scenario_class(
                CLASSES, CONFIG, server=cluster, spec=SPEC, seed=4, admission=admission
            )
            return scenario.run(), scenario.server

        walk, cluster = run(Scenario)
        reference, reference_cluster = run(ReferenceScenario)
        _assert_same_run(walk, reference)
        assert walk.degraded_counts == reference.degraded_counts
        assert cluster.bank._calendar is not None
        assert cluster.backlogs() == reference_cluster.backlogs()
        assert sum(walk.rejected_counts) > 0
        assert len(set(walk.ledger.node[walk.ledger.node >= 0].tolist())) > 1

    class ByClass(DispatchPolicy):
        """A custom policy implementing only ``select_node``, on the class
        argument alone: the walk chooses before the row is written, so a
        ledger read here would see another row's class."""

        def select_node(self, rid, class_index):
            live = self.cluster.live_nodes
            return live[(2 * class_index + rid) % len(live)]

    def test_a_select_node_policy_routes_on_its_class_argument(self):
        def run(scenario_class):
            cluster = make_cluster(
                3, self.ByClass(), capacities=resolve_capacities([3.0, 2.0, 1.0], 3)
            )
            scenario = scenario_class(
                CLASSES,
                CONFIG,
                server=cluster,
                spec=SPEC,
                seed=6,
                admission=QueueLengthAdmission((3, 3)),
            )
            return scenario.run()

        walk = run(Scenario)
        reference = run(ReferenceScenario)
        _assert_same_run(walk, reference)
        ledger = walk.ledger
        admitted = ledger.node >= 0
        rids = np.flatnonzero(admitted)
        assert ledger.node[admitted].tolist() == (
            (2 * ledger.class_index[admitted] + rids) % 3
        ).tolist()
        assert sum(walk.rejected_counts) > 0

    def test_a_zero_rate_class_never_completes_in_the_walk(self):
        """On the single-node bank a class held at rate 0 keeps every
        admitted row unfinished: its backlog only grows, so the walk sheds
        each of its arrivals once the limit is reached, as the reference."""

        def run(scenario_class):
            policy = self.Recording((3, 3))
            result = scenario_class(
                CLASSES,
                CONFIG,
                server=RateScalableServers(),
                controller=StaticRateController((1.0, 0.0)),
                seed=4,
                admission=policy,
            ).run()
            return result, policy.reads

        walk, walk_reads = run(Scenario)
        reference, reference_reads = run(ReferenceScenario)
        _assert_same_run(walk, reference)
        assert walk_reads == reference_reads
        assert max(read[1] for read in walk_reads) == 3
        assert [read[1] for read in walk_reads] == sorted(read[1] for read in walk_reads)
        assert walk.rejected_counts[1] > 0
