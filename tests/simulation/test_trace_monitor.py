"""Tests for ledger row queries, measurement config and monitors."""

import math

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.errors import ParameterError, SimulationError
from repro.simulation import (
    MeasurementConfig,
    RequestLedger,
    Scenario,
    WindowedMonitor,
)
from repro.simulation.monitor import window_span
from tests.conftest import make_classes
from tests.simulation.test_monitor_windows import assert_table_matches_oracle, oracle_samples

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


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


class TestLedgerRowQueries:
    """Per-request readers filter the ledger's columns; there is no
    per-request object."""

    def build_ledger(self):
        return completed_ledger(
            2,
            [
                (0, 0.0, 1.0, 1.0),  # slowdown 1
                (0, 5.0, 4.0, 2.0),  # slowdown 2
                (1, 5.0, 9.0, 3.0),  # slowdown 3
            ],
        )

    def test_row_metrics(self):
        ledger = completed_ledger(1, [(0, 10.0, 3.0, 1.5)])
        assert ledger.completed_ids.tolist() == [0]
        assert ledger.waiting_times().tolist() == [3.0]
        assert ledger.slowdowns().tolist() == [2.0]
        assert ledger.completion_of(0) - ledger.arrival_of(0) == pytest.approx(4.5)

    def test_incomplete_rows_are_not_completed(self):
        ledger = completed_ledger(1, [(0, 0.0, 1.0, 1.0)])
        ledger.append(0, 5.0, 1.0)
        assert len(ledger) == 2
        assert ledger.completed_ids.tolist() == [0]
        assert ledger.slowdowns().tolist() == [1.0]

    def test_per_class_slowdowns(self):
        ledger = self.build_ledger()
        ids = ledger.completed_ids
        classes = ledger.class_index[ids]
        slowdowns = ledger.slowdowns(ids)
        assert np.bincount(classes).tolist() == [2, 1]
        assert slowdowns[classes == 0].mean() == pytest.approx(1.5)
        assert slowdowns[classes == 1].mean() == pytest.approx(3.0)
        assert slowdowns.mean() == pytest.approx(2.0)

    def test_measured_ids_are_the_rows_completed_after_warmup(self):
        classes = make_classes(Deterministic(1.0), 0.6, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=10.0, horizon=80.0, window=10.0)
        result = Scenario(classes, cfg, seed=5).run()
        ids = result.ledger.completed_ids
        assert ids.size > 0
        measured = result.measured_ids()
        assert measured.tolist() == [
            int(rid) for rid in ids if result.ledger.completion_of(rid) >= cfg.warmup
        ]
        assert float(np.mean(result.ledger.slowdowns(measured))) == pytest.approx(
            result.system_mean_slowdown()
        )

    def test_class_out_of_range_rejected(self):
        ledger = RequestLedger(1)
        with pytest.raises(SimulationError):
            ledger.append(3, 0.0, 1.0)
        assert len(ledger) == 0

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            RequestLedger(0)


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
        monitor = monitor_over(2, jobs, warmup=10.0, window=5.0)
        table = monitor.table
        assert table.counts.tolist() == [[1, 1], [1, 0]]
        assert window_span(table.first, warmup=10.0, window=5.0)[0] == 10.0

    def test_warmup_requests_dropped(self):
        monitor = monitor_over(1, [(0, 0.0, 1.0, 1.0)], warmup=10.0, window=5.0)
        assert monitor.table.means.shape == (0, 1)

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

    def test_window_ratio_nan_handling(self):
        # Class 1 is silent in the one window, so it has no ratio.
        monitor = monitor_over(2, [(0, 0.0, 1.0, 1.0)], warmup=0.0, window=10.0)
        assert math.isnan(monitor.table.means[0, 1])
        assert monitor.ratio_series(1, 0).size == 0

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
        table = monitor.table
        starts = [window_span(table.first + w, warmup=0.0, window=10.0)[0] for w in range(4)]
        assert len(table.means) == 4 and starts == [0.0, 10.0, 20.0, 30.0]
        assert table.counts[1:3].tolist() == [[0, 0], [0, 0]]
        assert np.isnan(table.means[1]).all()
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
        assert_table_matches_oracle(monitor, expected)

    def test_warmup_completions_dropped(self):
        ledger, monitor = self.make_ledger_monitor()
        self.complete(ledger, 0, 0.0, 1.0, 1.0)
        assert monitor.table.means.shape == (0, 2)
