"""Hand-computable end-to-end scenarios.

These tests drive the full PSD server with trace sources (deterministic
arrival times and sizes) and a static rate controller so every waiting time,
completion time and slowdown can be verified against pencil-and-paper
values.  They pin down the exact semantics of the simulator: FCFS order
within a class, rate scaling of service times, and the slowdown definition
(delay over the time actually spent in service).
"""

import math

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.simulation import (
    MeasurementConfig,
    Scenario,
    StaticRateController,
    TraceSource,
)
from repro.types import TrafficClass

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


def run_scenario(sources, rates, *, horizon=100.0, num_classes=2):
    classes = tuple(
        TrafficClass(f"c{i}", 0.0, Deterministic(1.0), float(i + 1))
        for i in range(num_classes)
    )
    config = MeasurementConfig(warmup=0.0, horizon=horizon, window=horizon)
    sim = Scenario(
        classes,
        config,
        controller=StaticRateController(rates),
        sources=sources,
        seed=0,
    )
    return sim.run()


class TestSingleClassTrace:
    def test_back_to_back_requests_wait_for_predecessors(self):
        # Three requests of size 2 arriving at t = 0, 1, 2 on a full-rate server.
        source = TraceSource(0, interarrivals=[0.0, 1.0, 1.0], sizes=[2.0, 2.0, 2.0])
        result = run_scenario([source], rates=[1.0], num_classes=1)
        ledger = result.ledger
        rows = np.arange(len(ledger))  # rows are in arrival order
        assert ledger.arrival_time.tolist() == [0.0, 1.0, 2.0]
        assert ledger.service_start_time.tolist() == [0.0, 2.0, 4.0]
        assert ledger.completion_time.tolist() == [2.0, 4.0, 6.0]
        assert ledger.waiting_times(rows).tolist() == [0.0, 1.0, 2.0]
        assert ledger.slowdowns(rows).tolist() == [0.0, 0.5, 1.0]

    def test_half_rate_task_server_doubles_everything(self):
        source = TraceSource(0, interarrivals=[0.0, 1.0], sizes=[1.0, 1.0])
        result = run_scenario([source], rates=[0.5], num_classes=1)
        ledger = result.ledger
        rows = np.arange(len(ledger))
        # First request served 0 -> 2 (size 1 at rate 0.5); second arrives at
        # t=1, waits 1, served 2 -> 4.
        assert ledger.completion_of(0) == pytest.approx(2.0)
        assert ledger.waiting_times(rows)[1] == pytest.approx(1.0)
        assert ledger.completion_of(1) == pytest.approx(4.0)
        # Slowdown divides by the *scaled* service duration (2.0), not by
        # the full-rate demand (size 1.0).
        assert ledger.slowdowns(rows)[1] == pytest.approx(0.5)
        assert ledger.waiting_times(rows)[1] / ledger.size_of(1) == pytest.approx(1.0)

    def test_idle_gap_resets_queueing(self):
        source = TraceSource(0, interarrivals=[0.0, 10.0], sizes=[1.0, 1.0])
        result = run_scenario([source], rates=[1.0], num_classes=1)
        rows = np.arange(len(result.ledger))
        assert result.ledger.waiting_times(rows)[1] == 0.0
        assert result.ledger.slowdowns(rows)[1] == 0.0


class TestTwoClassTraces:
    def test_classes_do_not_interfere_on_separate_task_servers(self):
        # Identical traces in both classes; class 2's task server is half as
        # fast, so only its service times (not its arrival pattern) differ.
        source_a = TraceSource(0, interarrivals=[0.0, 0.5], sizes=[1.0, 1.0])
        source_b = TraceSource(1, interarrivals=[0.0, 0.5], sizes=[1.0, 1.0])
        result = run_scenario([source_a, source_b], rates=[0.5, 0.5])
        ledger = result.ledger
        for class_index, rate in ((0, 0.5), (1, 0.5)):
            first, second = np.flatnonzero(ledger.class_index == class_index)
            assert ledger.completion_of(first) - ledger.start_of(first) == pytest.approx(1.0 / rate)
            # Second request arrives at 0.5, first finishes at 2.0.
            assert ledger.waiting_times([second])[0] == pytest.approx(1.5)
            assert ledger.slowdowns([second])[0] == pytest.approx(1.5 / 2.0)

    def test_unequal_rates_produce_proportional_service_durations(self):
        source_a = TraceSource(0, interarrivals=[0.0], sizes=[1.0])
        source_b = TraceSource(1, interarrivals=[0.0], sizes=[1.0])
        result = run_scenario([source_a, source_b], rates=[0.8, 0.2])
        ledger = result.ledger
        fast, slow = (int(np.flatnonzero(ledger.class_index == c)[0]) for c in (0, 1))
        assert ledger.completion_of(fast) - ledger.start_of(fast) == pytest.approx(1.25)
        assert ledger.completion_of(slow) - ledger.start_of(slow) == pytest.approx(5.0)
        assert ledger.waiting_times([fast, slow]).tolist() == [0.0, 0.0]

    def test_exhausted_trace_stops_generating(self):
        source_a = TraceSource(0, interarrivals=[0.0], sizes=[1.0])
        source_b = TraceSource(1, interarrivals=[0.0, 1.0, 1.0], sizes=[1.0, 1.0, 1.0])
        result = run_scenario([source_a, source_b], rates=[0.5, 0.5])
        assert result.generated_counts == (1, 3)
        assert result.completed_counts == (1, 3)


class TestMeasurementSemantics:
    def test_warmup_excludes_early_completions_from_summaries(self):
        source = TraceSource(0, interarrivals=[0.0, 1.0, 50.0], sizes=[1.0, 1.0, 1.0])
        classes = (TrafficClass("c0", 0.0, Deterministic(1.0), 1.0),)
        config = MeasurementConfig(warmup=10.0, horizon=100.0, window=10.0)
        sim = Scenario(
            classes,
            config,
            controller=StaticRateController([1.0]),
            sources=[source],
            seed=0,
        )
        result = sim.run()
        # All three complete, but only the request finishing after the warm-up
        # (the one arriving at t=51) contributes to the measured mean.
        assert result.ledger.num_completed == 3
        assert result.measured_ids().tolist() == [2]
        assert result.per_class_mean_slowdowns()[0] == pytest.approx(0.0)

    def test_unfinished_requests_are_not_recorded(self):
        # A request whose service extends past the horizon never completes.
        source = TraceSource(0, interarrivals=[0.0], sizes=[1000.0])
        result = run_scenario([source], rates=[1.0], num_classes=1, horizon=10.0)
        assert result.generated_counts == (1,)
        assert result.completed_counts == (0,)
        assert result.ledger.num_completed == 0
        assert math.isnan(result.per_class_mean_slowdowns()[0])
