"""Window-edge semantics shared by the monitor, availability and health layers.

The satellite fix behind these tests: ``WindowedMonitor`` (slowdown samples)
and ``fleet_availability`` (live fractions) used to implement their window
arithmetic independently; both now go through the module-level
``window_index_of`` / ``window_span`` / ``windowed_time_average`` helpers, so
the half-open ``[start, end)`` boundary convention cannot drift between them.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import WindowedMonitor
from repro.simulation.ledger import RequestLedger
from repro.simulation.monitor import (
    fleet_availability,
    window_index_of,
    window_span,
    windowed_time_average,
)


class TestWindowHelpers:
    def test_window_index_half_open_boundaries(self):
        # Window w spans [warmup + w*window, warmup + (w+1)*window): a
        # completion exactly on an edge belongs to the *later* window.
        assert window_index_of(10.0, warmup=10.0, window=5.0) == 0
        assert window_index_of(14.999999, warmup=10.0, window=5.0) == 0
        assert window_index_of(15.0, warmup=10.0, window=5.0) == 1
        assert window_index_of(25.0, warmup=10.0, window=5.0) == 3

    def test_window_span_round_trips_index(self):
        for index in range(5):
            start, end = window_span(index, warmup=10.0, window=5.0)
            assert window_index_of(start, warmup=10.0, window=5.0) == index
            assert window_index_of(end - 1e-9, warmup=10.0, window=5.0) == index
            assert end - start == 5.0

    def test_windowed_time_average_overlaps(self):
        # Value 1.0 until t=7.5, then 0.0: window [5, 10) averages 0.5.
        entries = [(0.0, [1.0]), (7.5, [0.0])]
        out = windowed_time_average(entries, warmup=5.0, window=5.0, num_windows=2)
        assert out.shape == (2, 1)
        assert out[0][0] == 0.5
        assert out[1][0] == 0.0

    def test_windowed_time_average_last_entry_extends_forever(self):
        entries = [(0.0, [2.0])]
        out = windowed_time_average(entries, warmup=0.0, window=1.0, num_windows=3)
        assert np.all(out == 2.0)


class TestAvailabilityBoundaryRegression:
    def test_state_flip_exactly_on_window_edge(self):
        """A node going down exactly on a window boundary must count as down
        for the whole later window and fully live for the earlier one —
        the half-open convention both series now share."""
        timeline = [
            (0.0, ("live", "live"), (None, None)),
            (15.0, ("live", "down"), (None, None)),  # exactly the w0/w1 edge
            (20.0, ("live", "live"), (None, None)),  # exactly the w1/w2 edge
        ]
        series = fleet_availability(timeline, warmup=10.0, window=5.0, num_windows=3)
        assert series[0].tolist() == [1.0, 1.0]
        assert series[1].tolist() == [1.0, 0.0]
        assert series[2].tolist() == [1.0, 1.0]

    def test_monitor_series_agrees_with_module_function(self):
        timeline = [
            (0.0, ("live",), (None,)),
            (12.5, ("down",), (None,)),
        ]
        monitor = WindowedMonitor(1, warmup=10.0, window=5.0, ledger=RequestLedger(1))
        assert np.array_equal(
            monitor.availability_series(timeline, 2),
            fleet_availability(timeline, warmup=10.0, window=5.0, num_windows=2),
        )


def oracle_samples(rows, *, num_classes, warmup, window):
    """Brute-force per-window samples: ``[(start, end, counts, means)]``.

    ``rows`` are ``(class_index, arrival, start, completion)`` tuples in
    completion-log order.  Written without ``repro.simulation.monitor``:
    the window of a completion is the exact rational floor of
    ``(completion - warmup) / window`` (so a completion exactly on an edge
    belongs to the later window), completions before ``warmup`` are dropped,
    every window between the first and last measured one is emitted (a
    silent window as zero counts and all-NaN means), and each mean is
    ``np.mean`` over the window's slowdowns in log order.
    """
    buckets = {}
    for class_index, arrival, start, completion in rows:
        if completion < warmup:
            continue
        index = math.floor((Fraction(completion) - Fraction(warmup)) / Fraction(window))
        per_class = buckets.setdefault(index, [[] for _ in range(num_classes)])
        per_class[class_index].append((start - arrival) / (completion - start))
    if not buckets:
        return []
    out = []
    for index in range(min(buckets), max(buckets) + 1):
        per_class = buckets.get(index, [[] for _ in range(num_classes)])
        out.append(
            (
                warmup + index * window,
                warmup + (index + 1) * window,
                tuple(len(values) for values in per_class),
                tuple(float(np.mean(values)) if values else math.nan for values in per_class),
            )
        )
    return out


def assert_samples_match_oracle(samples, expected):
    """Equal windows and counts, and bit-equal means (NaN matching NaN)."""
    assert len(samples) == len(expected)
    for sample, (start, end, counts, means) in zip(samples, expected):
        assert (sample.start, sample.end, sample.counts) == (start, end, counts)
        for got, want in zip(sample.mean_slowdowns, means):
            assert (math.isnan(got) and math.isnan(want)) or got == want


WARMUP = 5.0
WINDOW = 4.0


def completion_workloads():
    """Random ``(class_index, waiting, service, edge)`` completion streams.

    ``edge`` is ``None`` for a free completion, or ``k`` for a completion
    exactly on ``WARMUP + k * WINDOW`` (``k = 0``: exactly at the warm-up).
    """
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
            st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
            st.none() | st.integers(min_value=0, max_value=8),
        ),
        min_size=0,
        max_size=60,
    )


def build_rows(workload):
    """Turn a drawn workload into ``(class, arrival, start, completion)``
    rows sorted by completion time, the engine's logging order."""
    rows = []
    clock = 0.5
    for class_index, waiting, service, edge in workload:
        if edge is None:
            arrival = clock
            start = arrival + waiting
            completion = start + service
        else:
            completion = WARMUP + edge * WINDOW
            start = completion - service
            arrival = start - waiting
        rows.append((class_index, arrival, start, completion))
        clock += 0.7  # arrivals strictly increase; completions vary freely
    return sorted(rows, key=lambda row: row[3])


def ledger_monitor(rows):
    """A three-class monitor over a ledger that completed ``rows`` in order."""
    ledger = RequestLedger(3)
    for class_index, arrival, start, completion in rows:
        rid = ledger.append(class_index, arrival, 1.0)
        ledger.start_service(rid, start)
        ledger.complete(rid, completion)
    return WindowedMonitor(3, warmup=WARMUP, window=WINDOW, ledger=ledger)


class TestSamplesVersusOracleProperty:
    """``WindowedMonitor.samples()`` against the brute-force oracle above."""

    @given(completion_workloads())
    @settings(max_examples=60, deadline=None)
    def test_identical_window_sample_sequences(self, workload):
        rows = build_rows(workload)
        assert_samples_match_oracle(
            ledger_monitor(rows).samples(),
            oracle_samples(rows, num_classes=3, warmup=WARMUP, window=WINDOW),
        )

    def test_gap_windows_are_all_nan(self):
        # Two completions three windows apart: the gap windows must appear
        # as zero-count, all-NaN samples.
        rows = [(0, 1.0, 2.0, 6.0), (1, 2.0, 3.0, 21.0)]
        samples = ledger_monitor(rows).samples()
        assert_samples_match_oracle(
            samples, oracle_samples(rows, num_classes=3, warmup=WARMUP, window=WINDOW)
        )
        assert len(samples) == 5
        for gap in (1, 2):
            assert samples[gap].counts == (0, 0, 0)
            assert all(math.isnan(m) for m in samples[gap].mean_slowdowns)

    def test_edge_completions_belong_to_the_later_window(self):
        # One completion exactly at the warm-up, one exactly on the w0/w1
        # edge, one just before that edge.
        edge = WARMUP + WINDOW
        rows = [
            (0, 0.0, 1.0, WARMUP),
            (1, 0.0, 2.0, math.nextafter(edge, 0.0)),
            (2, 0.0, 3.0, edge),
        ]
        samples = ledger_monitor(rows).samples()
        assert_samples_match_oracle(
            samples, oracle_samples(rows, num_classes=3, warmup=WARMUP, window=WINDOW)
        )
        assert [s.counts for s in samples] == [(1, 1, 0), (0, 0, 1)]
