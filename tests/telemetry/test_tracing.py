"""Tests for deterministic trace sampling and the Chrome trace exporter."""

import json

import numpy as np
import pytest

from repro import (
    MeasurementConfig,
    PsdSpec,
    Scenario,
    make_cluster,
    parse_fleet_events,
    run_replications,
)
from repro.cluster import AdmissionController, resolve_capacities
from repro.distributions import BoundedPareto
from repro.errors import ParameterError
from repro.simulation.ledger import DISPOSITION_SHED
from repro.telemetry import (
    Telemetry,
    chrome_trace_events,
    sample_mask,
    trace_seed,
    write_chrome_trace,
)
from repro.types import TrafficClass

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

PHASES = {"B", "E", "X", "i", "M"}


def validate_chrome_events(events):
    """Minimal Chrome trace-event schema check."""
    assert isinstance(events, list) and events
    for event in events:
        assert isinstance(event, dict)
        assert event["ph"] in PHASES
        assert isinstance(event["name"], str)
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
    # Must serialise cleanly.
    json.dumps(events)


class TestTraceSeed:
    def test_integer_seeds_pass_through_masked(self):
        assert trace_seed(7) == 7
        assert trace_seed(2**70 + 5) == (2**70 + 5) % 2**64

    def test_seed_sequence_is_stable_and_pure(self):
        seq = np.random.SeedSequence(42)
        first = trace_seed(seq)
        assert first == trace_seed(np.random.SeedSequence(42))
        # Deriving the key must not advance the spawn state.
        assert seq.n_children_spawned == 0


class TestSampleMask:
    def test_extreme_rates(self):
        rids = np.arange(100)
        assert sample_mask(rids, 1, 1.0).all()
        assert not sample_mask(rids, 1, 0.0).any()

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ParameterError):
            sample_mask(np.arange(4), 0, 1.5)

    def test_deterministic_in_seed_and_rid(self):
        rids = np.arange(10_000)
        mask_a = sample_mask(rids, 123, 0.3)
        mask_b = sample_mask(rids, 123, 0.3)
        assert np.array_equal(mask_a, mask_b)
        # Independent of array order/partitioning: per-rid decisions only.
        shuffled = np.random.default_rng(0).permutation(rids)
        by_rid = dict(zip(shuffled.tolist(), sample_mask(shuffled, 123, 0.3).tolist()))
        assert all(by_rid[int(r)] == bool(mask_a[r]) for r in rids[:100])

    def test_different_seeds_differ(self):
        rids = np.arange(10_000)
        assert not np.array_equal(sample_mask(rids, 1, 0.5), sample_mask(rids, 2, 0.5))

    def test_rate_approximates_fraction(self):
        rids = np.arange(50_000)
        kept = sample_mask(rids, 9, 0.25).mean()
        assert kept == pytest.approx(0.25, abs=0.02)


def run_cluster_scenario(classes, measurement, seed, *, telemetry=None):
    fleet = parse_fleet_events(
        f"kill:1@{measurement.warmup * 2:g} restore:1@{measurement.warmup * 4:g}"
    )
    cluster = make_cluster(
        3, "round_robin", seed=np.random.SeedSequence(3), fleet=fleet
    )
    scenario = Scenario(
        classes,
        measurement,
        server=cluster,
        spec=PsdSpec.of(*(c.delta for c in classes)),
        seed=seed,
        telemetry=telemetry,
    )
    return scenario.run()


class TestChromeTraceEvents:
    def test_needs_a_ledger(self, two_classes, short_measurement):
        import dataclasses

        result = run_cluster_scenario(
            two_classes, short_measurement, np.random.SeedSequence(7)
        )
        with pytest.raises(ParameterError):
            chrome_trace_events(dataclasses.replace(result, ledger=None), seed=7)

    def test_cluster_churn_trace_is_valid_and_complete(
        self, two_classes, short_measurement, tmp_path
    ):
        telemetry = Telemetry()
        result = run_cluster_scenario(
            two_classes, short_measurement, np.random.SeedSequence(7), telemetry=telemetry
        )
        events = chrome_trace_events(result, seed=7, telemetry=telemetry)
        validate_chrome_events(events)
        names = {e["name"] for e in events}
        assert {"process_name", "fleet event", "down"} <= names
        assert any(n.startswith("queued c") for n in names)
        assert any(n.startswith("service c") for n in names)
        assert any(n.startswith("window ") for n in names)
        # Request spans carry node attribution from the ledger's node column.
        request_events = [e for e in events if e.get("cat") == "request"]
        node = result.ledger.node
        assert all(e["tid"] == e["args"]["node"] == node[e["args"]["rid"]] for e in request_events)
        # Two spans (queued + service) per sampled completed request.
        assert len(request_events) == 2 * len(result.ledger.completed_ids)

        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, events)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == count == len(events)

    def test_batched_run_emits_block_and_drain_instants(
        self, two_classes, short_measurement
    ):
        telemetry = Telemetry()
        result = Scenario(
            two_classes,
            short_measurement,
            spec=PsdSpec.of(*(c.delta for c in two_classes)),
            seed=np.random.SeedSequence(7),
            telemetry=telemetry,
        ).run()
        events = chrome_trace_events(result, seed=7, telemetry=telemetry)
        validate_chrome_events(events)
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert {"batch", "drain"} <= instants
        batches = [e for e in events if e["name"] == "batch"]
        assert len(batches) == len(telemetry.batch_marks)
        assert all(e["args"]["size"] > 0 for e in batches)

    def test_sample_rate_prunes_request_spans(self, two_classes, short_measurement):
        telemetry = Telemetry(trace_sample_rate=0.2)
        result = run_cluster_scenario(
            two_classes, short_measurement, np.random.SeedSequence(7), telemetry=telemetry
        )
        full = chrome_trace_events(result, seed=7, sample_rate=1.0)
        sampled = chrome_trace_events(result, seed=7, telemetry=telemetry)
        full_requests = [e for e in full if e.get("cat") == "request"]
        sampled_requests = [e for e in sampled if e.get("cat") == "request"]
        assert 0 < len(sampled_requests) < len(full_requests)
        # Sampled spans are a subset of the full set.
        full_keys = {json.dumps(e, sort_keys=True) for e in full_requests}
        assert all(json.dumps(e, sort_keys=True) in full_keys for e in sampled_requests)


    def test_spans_name_each_row_own_node_when_rows_are_shed(self):
        """Shed rows have ledger rows but are never dispatched, so a span
        reads its node from its own row, not from a list of the admitted
        rows' choices."""
        service = BoundedPareto(0.3, 10.0, 1.5)
        classes = (
            TrafficClass("gold", 2.5, service, 1.0),
            TrafficClass("silver", 2.5, service, 2.0),
        )
        cluster = make_cluster(
            2,
            "weighted_random",
            capacities=resolve_capacities("2:1", 2),
            seed=np.random.SeedSequence(5),
        )
        result = Scenario(
            classes,
            MeasurementConfig(warmup=20.0, horizon=300.0, window=20.0),
            server=cluster,
            spec=PsdSpec.of(1, 2),
            seed=11,
            admission=AdmissionController((0.45, 0.45), target_utilisation=0.95),
        ).run()
        ledger = result.ledger
        shed = ledger.disposition == DISPOSITION_SHED
        # Shed rows early in the run shift every later row off a list of
        # the admitted rows' choices.
        assert 0 < np.count_nonzero(shed[: len(ledger) // 2])
        assert np.array_equal(ledger.node < 0, shed)
        events = chrome_trace_events(result, seed=11, sample_rate=1.0)
        spans = [e for e in events if e.get("cat") == "request"]
        assert len(spans) == 2 * ledger.num_completed
        node = ledger.node
        assert all(e["tid"] == e["args"]["node"] == node[e["args"]["rid"]] for e in spans)


class _TraceBuild:
    """Picklable build for worker-based replication runs."""

    def __init__(self, classes, measurement):
        self.classes = classes
        self.measurement = measurement

    def __call__(self, index, seed):
        return run_cluster_scenario(self.classes, self.measurement, seed)


class TestWorkerCountStability:
    def test_serial_and_parallel_traces_identical(self, two_classes, moderate_bp):
        """The trace is a pure function of (result, seed), and results are
        bit-identical across worker counts — so traces are too."""
        measurement = MeasurementConfig(
            warmup=200.0, horizon=1_500.0, window=100.0
        ).scaled_to_time_units(moderate_bp.mean())
        build = _TraceBuild(two_classes, measurement)
        serial = run_replications(
            build, replications=2, base_seed=11, workers=1
        ).results
        parallel = run_replications(
            build, replications=2, base_seed=11, workers=2
        ).results
        for index, (a, b) in enumerate(zip(serial, parallel)):
            trace_a = chrome_trace_events(a, seed=index, sample_rate=0.5)
            trace_b = chrome_trace_events(b, seed=index, sample_rate=0.5)
            assert trace_a == trace_b
