"""Differential tests: the batched pipeline must be bit-identical to the
per-event reference simulator.

The scenario's pipeline (block arrivals + bulk completion drains) is a pure
re-ordering of the float arithmetic one engine event per arrival and per
completion performs (:mod:`tests.reference`): every operand sequence is
preserved.  These tests pin that contract across the full matrix
{Poisson, trace replay} x {FCFS rate-scalable, shared-processor WFQ} x
{serial, workers=2} by comparing full-float ``repr`` fingerprints — any
drift of even one ULP fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import BoundedPareto
from repro.scheduling import WeightedFairQueueing
from repro.simulation import MeasurementConfig, Scenario, run_replications
from repro.simulation.generator import TraceSource
from repro.simulation.server_models import RateScalableServers, SharedProcessorServer
from repro.types import TrafficClass
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

CLASSES = (
    TrafficClass("gold", 0.30, BoundedPareto(0.5, 50.0, 1.2), 1.0),
    TrafficClass("silver", 0.45, BoundedPareto(0.3, 30.0, 1.5), 2.5),
)
CONFIG = MeasurementConfig(warmup=20.0, horizon=200.0, window=10.0)

SERVERS = {
    "fcfs": lambda: RateScalableServers(),
    "shared-wfq": lambda: SharedProcessorServer(WeightedFairQueueing(len(CLASSES))),
}


def _trace_sources() -> list[TraceSource]:
    """A deterministic two-class trace long enough to outlast the horizon."""
    rng = np.random.default_rng(2024)
    sources = []
    for index, cls in enumerate(CLASSES):
        n = int(cls.arrival_rate * CONFIG.horizon * 3) + 50
        gaps = rng.exponential(1.0 / cls.arrival_rate, size=n)
        sizes = np.asarray([cls.service.sample(rng) for _ in range(n)])
        sources.append(TraceSource(index, interarrivals=gaps, sizes=sizes))
    return sources


WORKLOADS = {"poisson": None, "trace": _trace_sources}


def _run(server_key: str, workload_key: str, scenario_class=Scenario):
    factory = WORKLOADS[workload_key]
    sources = factory() if factory is not None else None
    scenario = scenario_class(
        CLASSES,
        CONFIG,
        server=SERVERS[server_key](),
        seed=7,
        sources=sources,
    )
    return scenario.run()


def _fingerprint(result) -> str:
    """Full-float repr of everything the run produced, including the ledger."""
    ledger = result.ledger
    n = len(ledger)
    parts = [
        repr(result.per_class_mean_slowdowns()),
        repr(result.per_class_mean_waiting_times()),
        repr(result.per_class_completed_work()),
        repr(result.rate_history),
        repr(result.generated_counts),
        repr(result.completed_counts),
        repr(n),
        repr(ledger.num_completed),
        ledger.arrival_time.tobytes().hex(),
        ledger.size.tobytes().hex(),
        ledger.class_index.tobytes().hex(),
        ledger.service_start_time.tobytes().hex(),
        ledger.completion_time.tobytes().hex(),
        ledger.completed_ids.tobytes().hex(),
    ]
    return "|".join(parts)


class TestBatchedVsPerEventSerial:
    @pytest.mark.parametrize("server_key", sorted(SERVERS))
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    def test_serial_runs_are_bit_identical(self, server_key, workload_key):
        batched = _run(server_key, workload_key)
        per_event = _run(server_key, workload_key, ReferenceScenario)
        assert _fingerprint(batched) == _fingerprint(per_event)
        # Non-trivial runs only: the horizon must have produced completions.
        assert batched.ledger.num_completed > 50


class TestBatchedVsPerEventWorkers:
    @pytest.mark.parametrize("server_key", sorted(SERVERS))
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    def test_worker_results_match_serial_both_paths(self, server_key, workload_key):
        def build_batched(index, seed):
            return _run(server_key, workload_key)

        def build_per_event(index, seed):
            return _run(server_key, workload_key, ReferenceScenario)

        serial = run_replications(build_batched, replications=2, workers=1)
        forked = run_replications(build_batched, replications=2, workers=2)
        per_event = run_replications(build_per_event, replications=2, workers=2)
        for a, b, c in zip(serial.results, forked.results, per_event.results):
            fa = _fingerprint(a)
            assert fa == _fingerprint(b)
            assert fa == _fingerprint(c)
