"""Tests for trace records, trace queries, measurement config and monitors."""

import math

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.errors import ParameterError, SimulationError
from repro.simulation import (
    MeasurementConfig,
    RequestLedger,
    Scenario,
    SimulationTrace,
    WindowedMonitor,
)
from tests.conftest import make_classes
from tests.simulation.test_monitor_windows import assert_samples_match_oracle, oracle_samples


def completed_ledger(num_classes, jobs):
    """A ledger that completed one row per ``(class, arrival, wait, service)``
    job, in the order given (row ``i`` is job ``i``)."""
    ledger = RequestLedger(num_classes)
    for class_index, arrival, wait, service in jobs:
        rid = ledger.append(class_index, arrival, service)
        ledger.start_service(rid, arrival + wait)
        ledger.complete(rid, arrival + wait + service)
    return ledger


def monitor_over(num_classes, jobs, *, warmup, window):
    ledger = completed_ledger(num_classes, jobs)
    return WindowedMonitor(num_classes, warmup=warmup, window=window, ledger=ledger)


class TestRequestRecord:
    def test_record_from_ledger_row(self):
        ledger = completed_ledger(1, [(0, 10.0, 3.0, 1.5)])
        (rec,) = SimulationTrace(1, ledger=ledger).records
        assert rec.request_id == 0  # the ledger row
        assert rec.waiting_time == pytest.approx(3.0)
        assert rec.slowdown == pytest.approx(2.0)
        assert rec.demand_slowdown == pytest.approx(2.0)
        assert rec.response_time == pytest.approx(4.5)

    def test_incomplete_rows_are_not_recorded(self):
        ledger = completed_ledger(1, [(0, 0.0, 1.0, 1.0)])
        ledger.append(0, 5.0, 1.0)
        trace = SimulationTrace(1, ledger=ledger)
        assert len(trace) == 1
        assert [r.request_id for r in trace] == [0]
        assert trace.to_arrays()["request_id"].tolist() == [0]


class TestSimulationTrace:
    def build_trace(self):
        ledger = completed_ledger(
            2,
            [
                (0, 0.0, 1.0, 1.0),  # slowdown 1
                (0, 5.0, 4.0, 2.0),  # slowdown 2
                (1, 5.0, 9.0, 3.0),  # slowdown 3
            ],
        )
        return SimulationTrace(2, ledger=ledger)

    def test_counts_and_iteration(self):
        trace = self.build_trace()
        assert len(trace) == 3
        assert trace.per_class_counts() == (2, 1)
        assert len(list(iter(trace))) == 3

    def test_per_class_slowdowns(self):
        trace = self.build_trace()
        assert trace.mean_slowdown(0) == pytest.approx(1.5)
        assert trace.mean_slowdown(1) == pytest.approx(3.0)
        assert trace.per_class_mean_slowdowns() == (pytest.approx(1.5), pytest.approx(3.0))
        assert trace.weighted_system_slowdown() == pytest.approx(2.0)

    def test_empty_class_gives_nan(self):
        trace = SimulationTrace(2, ledger=completed_ledger(2, [(0, 0.0, 1.0, 1.0)]))
        assert math.isnan(trace.mean_slowdown(1))

    def test_window_filters(self):
        trace = self.build_trace()
        early = trace.in_window(0.0, 5.0, by="completion")
        assert [r.request_id for r in early] == [0]
        by_arrival = trace.in_window(5.0, 6.0, by="arrival")
        assert sorted(r.request_id for r in by_arrival) == [1, 2]
        with pytest.raises(SimulationError):
            trace.in_window(0.0, 1.0, by="departure")

    def test_to_arrays(self):
        arrays = self.build_trace().to_arrays()
        assert arrays["slowdown"].shape == (3,)
        assert arrays["class_index"].dtype.kind == "i"
        np.testing.assert_allclose(arrays["slowdown"], [1.0, 2.0, 3.0])
        # Record ids are the ledger rows, in completion order.
        np.testing.assert_array_equal(arrays["request_id"], [0, 1, 2])

    def test_record_ids_are_ledger_rows_in_a_run(self):
        classes = make_classes(Deterministic(1.0), 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=10.0, horizon=80.0, window=10.0)
        result = Scenario(classes, cfg, seed=5).run()
        ids = result.ledger.completed_ids
        assert ids.size > 0
        np.testing.assert_array_equal(result.trace.to_arrays()["request_id"], ids)
        records = result.measured_records()
        assert [r.request_id for r in records] == [
            int(rid) for rid in ids if result.ledger.completion_of(rid) >= cfg.warmup
        ]

    def test_class_out_of_range_rejected(self):
        ledger = RequestLedger(1)
        with pytest.raises(SimulationError):
            ledger.append(3, 0.0, 1.0)
        assert len(SimulationTrace(1, ledger=ledger)) == 0

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            SimulationTrace(0, ledger=RequestLedger(1))


class TestMeasurementConfig:
    def test_defaults_valid(self):
        cfg = MeasurementConfig()
        assert cfg.measurement_duration > 0

    def test_paper_protocol(self):
        cfg = MeasurementConfig.paper()
        assert cfg.warmup == 10_000
        assert cfg.horizon == 60_000
        assert cfg.window == 1_000
        assert cfg.replications == 100
        assert cfg.estimation_history == 5

    def test_validation(self):
        with pytest.raises(ParameterError):
            MeasurementConfig(warmup=100.0, horizon=50.0)
        with pytest.raises(ParameterError):
            MeasurementConfig(window=0.0)
        with pytest.raises(ParameterError):
            MeasurementConfig(replications=0)

    def test_scaling_to_time_units(self):
        cfg = MeasurementConfig(warmup=1000.0, horizon=2000.0, window=100.0)
        scaled = cfg.scaled_to_time_units(0.5)
        assert scaled.warmup == pytest.approx(500.0)
        assert scaled.horizon == pytest.approx(1000.0)
        assert scaled.window == pytest.approx(50.0)
        assert scaled.replications == cfg.replications


class TestWindowedMonitor:
    def test_requests_bucketed_by_completion_window(self):
        # Completion times: 12, 14 and 17.
        jobs = [(0, 9.0, 2.0, 1.0), (1, 10.0, 3.0, 1.0), (0, 15.0, 1.0, 1.0)]
        samples = monitor_over(2, jobs, warmup=10.0, window=5.0).samples()
        assert len(samples) == 2
        assert samples[0].start == 10.0
        assert samples[0].counts == (1, 1)
        assert samples[1].counts == (1, 0)

    def test_warmup_requests_dropped(self):
        monitor = monitor_over(1, [(0, 0.0, 1.0, 1.0)], warmup=10.0, window=5.0)
        assert monitor.samples() == []

    def test_ratio_series(self):
        jobs = [
            # Window 0: class 0 slowdown 1, class 1 slowdown 2.
            (0, 0.0, 1.0, 1.0),
            (1, 0.0, 4.0, 2.0),
            # Window 1: only class 0 completes; the ratio is undefined there.
            (0, 11.0, 1.0, 1.0),
        ]
        monitor = monitor_over(2, jobs, warmup=0.0, window=10.0)
        np.testing.assert_allclose(monitor.ratio_series(1, 0), [2.0])

    def test_per_class_window_means_alignment(self):
        jobs = [(0, 0.0, 1.0, 1.0), (0, 11.0, 2.0, 1.0)]
        monitor = monitor_over(2, jobs, warmup=0.0, window=10.0)
        aligned = monitor.per_class_window_means()
        assert len(aligned[0]) == len(aligned[1]) == 2
        assert math.isnan(aligned[1][0])
        dropped = monitor.per_class_window_means(drop_nan=True)
        assert dropped[1].size == 0

    def test_window_sample_ratio_nan_handling(self):
        monitor = monitor_over(2, [(0, 0.0, 1.0, 1.0)], warmup=0.0, window=10.0)
        sample = monitor.samples()[0]
        assert math.isnan(sample.ratio(1, 0))

    def test_invalid_construction(self):
        ledger = RequestLedger(1)
        with pytest.raises(ParameterError):
            WindowedMonitor(0, warmup=0.0, window=1.0, ledger=ledger)
        with pytest.raises(ParameterError):
            WindowedMonitor(1, warmup=0.0, window=0.0, ledger=ledger)

    def test_gap_windows_are_emitted_empty(self):
        """A window skipped by every class still appears (all-NaN, zero
        counts), keeping the per-class series time-aligned."""
        # Window 0: both classes; windows 1-2: silence; window 3: class 0.
        jobs = [(0, 0.0, 1.0, 1.0), (1, 0.0, 4.0, 2.0), (0, 31.0, 2.0, 1.0)]
        monitor = monitor_over(2, jobs, warmup=0.0, window=10.0)
        samples = monitor.samples()
        assert [s.start for s in samples] == [0.0, 10.0, 20.0, 30.0]
        assert samples[1].counts == (0, 0) and samples[2].counts == (0, 0)
        assert all(math.isnan(m) for m in samples[1].mean_slowdowns)
        # Aligned per-class series cover the gap with NaN for both classes.
        aligned = monitor.per_class_window_means()
        assert len(aligned[0]) == len(aligned[1]) == 4
        assert math.isnan(aligned[0][1]) and math.isnan(aligned[1][3])
        # ratio_series drops the undefined windows, as before.
        np.testing.assert_allclose(monitor.ratio_series(1, 0), [2.0])


class TestLedgerBackedMonitor:
    def make_ledger_monitor(self):
        ledger = RequestLedger(2)
        monitor = WindowedMonitor(2, warmup=10.0, window=5.0, ledger=ledger)
        return ledger, monitor

    def complete(self, ledger, class_index, arrival, wait, service):
        rid = ledger.append(class_index, arrival, 1.0)
        ledger.start_service(rid, arrival + wait)
        ledger.complete(rid, arrival + wait + service)
        return rid

    def test_matches_window_oracle(self):
        """The vectorised finalize agrees exactly with a brute-force oracle."""
        ledger, monitor = self.make_ledger_monitor()
        jobs = [
            (0, 9.0, 2.0, 1.0),  # completes 12
            (1, 10.0, 3.0, 1.0),  # completes 14
            (0, 15.0, 1.0, 1.0),  # completes 17
            (1, 20.0, 5.0, 2.0),  # completes 27 (window 3; window 2 empty)
        ]
        rows = []
        for class_index, arrival, wait, service in jobs:
            self.complete(ledger, class_index, arrival, wait, service)
            rows.append((class_index, arrival, arrival + wait, arrival + wait + service))
        expected = oracle_samples(rows, num_classes=2, warmup=10.0, window=5.0)
        assert len(expected) == 4  # gap window included
        assert_samples_match_oracle(monitor.samples(), expected)

    def test_warmup_completions_dropped(self):
        ledger, monitor = self.make_ledger_monitor()
        self.complete(ledger, 0, 0.0, 1.0, 1.0)
        assert monitor.samples() == []
