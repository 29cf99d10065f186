"""Window-edge semantics and the monitor's measurement pass against oracles.

``WindowedMonitor`` (slowdown samples) and ``fleet_availability`` (live
fractions) share the module-level ``window_span`` / ``windowed_time_average``
helpers, so the half-open ``[start, end)`` boundary convention cannot drift
between them.  The window of a time is checked here with the test's own
exact rational floor (:func:`window_of`), and every monitor read — window
samples, ratio series, per-class window means, whole-run means — is checked
bit for bit against a brute-force oracle that shares no monitor code.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Deterministic
from repro.simulation import MeasurementConfig, SimulationResult, WindowedMonitor
from repro.simulation.ledger import RequestLedger
from repro.simulation.monitor import (
    fleet_availability,
    window_span,
    windowed_time_average,
)
from repro.simulation.scenario import StaticRateController
from repro.types import TrafficClass


def window_of(time, *, warmup, window):
    """The window holding ``time``: the exact rational floor of
    ``(time - warmup) / window``, so a time exactly on an edge belongs to
    the later window."""
    return math.floor((Fraction(time) - Fraction(warmup)) / Fraction(window))


class TestWindowHelpers:
    def test_window_span_half_open_boundaries(self):
        # Window w spans [warmup + w*window, warmup + (w+1)*window): a
        # completion exactly on an edge belongs to the *later* window.
        start, end = window_span(0, warmup=10.0, window=5.0)
        assert (start, end) == (10.0, 15.0)
        assert window_of(start, warmup=10.0, window=5.0) == 0
        assert window_of(14.999999, warmup=10.0, window=5.0) == 0
        assert window_of(end, warmup=10.0, window=5.0) == 1
        assert window_span(3, warmup=10.0, window=5.0)[0] == 25.0
        assert window_of(25.0, warmup=10.0, window=5.0) == 3

    def test_window_span_round_trips_index(self):
        for index in range(5):
            start, end = window_span(index, warmup=10.0, window=5.0)
            assert window_of(start, warmup=10.0, window=5.0) == index
            assert window_of(end - 1e-9, warmup=10.0, window=5.0) == index
            assert window_of(end, warmup=10.0, window=5.0) == index + 1
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
        index = window_of(completion, warmup=warmup, window=window)
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


def oracle_run_means(rows, *, num_classes, warmup):
    """Whole-run ``(per-class means, system mean)``: ``np.mean`` over the
    post-warm-up slowdowns in log order (NaN for a silent class)."""
    per_class = [[] for _ in range(num_classes)]
    every = []
    for class_index, arrival, start, completion in rows:
        if completion >= warmup:
            value = (start - arrival) / (completion - start)
            per_class[class_index].append(value)
            every.append(value)
    means = tuple(float(np.mean(values)) if values else math.nan for values in per_class)
    return means, float(np.mean(every)) if every else math.nan


def oracle_ratios(expected, numerator, denominator):
    """Per-window ratios of two classes' oracle means; a window where either
    mean is NaN or the denominator's is zero has none."""
    ratios = []
    for *_, means in expected:
        num, den = means[numerator], means[denominator]
        if not (math.isnan(num) or math.isnan(den) or den == 0.0):
            ratios.append(num / den)
    return np.asarray(ratios, dtype=float)


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
    complete_rows(ledger, rows)
    return WindowedMonitor(3, warmup=WARMUP, window=WINDOW, ledger=ledger)


def complete_rows(ledger, rows):
    """Drive ``rows`` through the ledger by hand, completing them in order."""
    for class_index, arrival, start, completion in rows:
        rid = ledger.append(class_index, arrival, 1.0)
        ledger.start_service(rid, start)
        ledger.complete(rid, completion)


def ledger_result(rows):
    """A three-class :class:`SimulationResult` over :func:`ledger_monitor`."""
    monitor = ledger_monitor(rows)
    return SimulationResult(
        classes=tuple(
            TrafficClass(f"class-{c + 1}", 1.0, Deterministic(1.0), float(c + 1)) for c in range(3)
        ),
        config=MeasurementConfig(warmup=WARMUP, horizon=WARMUP + 100 * WINDOW, window=WINDOW),
        monitor=monitor,
        controller=StaticRateController((1.0, 1.0, 1.0)),
        ledger=monitor.ledger,
    )


def assert_reads_match_oracle(result, rows):
    """Every monitor read and the result's whole-run means, bit for bit
    against the oracles over ``rows`` (in completion-log order)."""
    expected = oracle_samples(rows, num_classes=3, warmup=WARMUP, window=WINDOW)
    monitor = result.monitor
    assert_samples_match_oracle(monitor.samples(), expected)
    for numerator, denominator in itertools.product(range(3), repeat=2):
        np.testing.assert_array_equal(
            monitor.ratio_series(numerator, denominator),
            oracle_ratios(expected, numerator, denominator),
        )
    columns = [np.asarray([means[c] for *_, means in expected], dtype=float) for c in range(3)]
    for got, want in zip(monitor.per_class_window_means(), columns, strict=True):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(monitor.per_class_window_means(drop_nan=True), columns, strict=True):
        np.testing.assert_array_equal(got, want[~np.isnan(want)])
    class_means, system_mean = oracle_run_means(rows, num_classes=3, warmup=WARMUP)
    np.testing.assert_array_equal(result.per_class_mean_slowdowns(), class_means)
    np.testing.assert_array_equal(result.system_mean_slowdown(), system_mean)


class TestSamplesVersusOracleProperty:
    """Every monitor read against the brute-force oracles above."""

    @given(completion_workloads())
    @settings(max_examples=60, deadline=None)
    def test_identical_window_sample_sequences(self, workload):
        rows = build_rows(workload)
        assert_reads_match_oracle(ledger_result(rows), rows)

    @given(completion_workloads(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_read_matches_in_any_hand_driven_order(self, workload, random):
        rows = build_rows(workload)
        random.shuffle(rows)
        assert_reads_match_oracle(ledger_result(rows), rows)

    def test_crowded_windows(self):
        # Hundreds of completions per (window, class): enough terms that any
        # summation order but ``np.mean``'s pairwise one changes the bits.
        rng = np.random.default_rng(7)
        completion = np.sort(rng.uniform(WARMUP, WARMUP + 3 * WINDOW, 2_000))
        service = rng.uniform(1e-3, 1.0, completion.size)
        waiting = rng.uniform(0.0, 3.0, completion.size)
        classes = rng.integers(0, 3, completion.size)
        rows = [
            (int(c), float(t - s - w), float(t - s), float(t))
            for c, w, s, t in zip(classes, waiting, service, completion)
        ]
        assert_reads_match_oracle(ledger_result(rows), rows)

    def test_out_of_order_completions(self):
        # Hand-driven completions hop back and forth across four windows;
        # every window keeps its rows in log order.
        rows = [
            (0, 0.0, 10.0, 14.0),
            (0, 0.5, 5.5, 6.0),
            (1, 1.0, 7.0, 10.0),
            (0, 1.5, 4.0, 7.5),
            (1, 2.0, 13.0, 17.5),
            (0, 2.5, 9.0, 9.25),
        ]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        counts = [s.counts for s in result.monitor.samples()]
        assert counts == [(2, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)]

    def test_gap_windows_are_all_nan(self):
        # Two completions three windows apart: the gap windows must appear
        # as zero-count, all-NaN samples.
        rows = [(0, 1.0, 2.0, 6.0), (1, 2.0, 3.0, 21.0)]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        samples = result.monitor.samples()
        assert len(samples) == 5
        for gap in (1, 2):
            assert samples[gap].counts == (0, 0, 0)
            assert all(math.isnan(m) for m in samples[gap].mean_slowdowns)
        assert result.monitor.ratio_series(1, 0).size == 0

    def test_edge_completions_belong_to_the_later_window(self):
        # One completion exactly at the warm-up, one exactly on the w0/w1
        # edge, one just before that edge.
        edge = WARMUP + WINDOW
        rows = [
            (0, 0.0, 1.0, WARMUP),
            (1, 0.0, 2.0, math.nextafter(edge, 0.0)),
            (2, 0.0, 3.0, edge),
        ]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        assert [s.counts for s in result.monitor.samples()] == [(1, 1, 0), (0, 0, 1)]

    def test_zero_denominator_windows_have_no_ratio(self):
        # Class 1 waits 0 in window 0 (mean slowdown 0) and 1 in window 1.
        rows = [
            (0, 5.0, 5.0, 6.0),
            (1, 4.0, 5.0, 6.5),
            (0, 6.0, 7.0, 10.0),
            (1, 6.0, 8.0, 11.0),
        ]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        assert result.monitor.ratio_series(1, 0).tolist() == [2.0]
        assert result.monitor.ratio_series(0, 1).tolist() == [0.0, 0.5]

    def test_silent_class(self):
        rows = [(0, 1.0, 2.0, 6.0), (1, 2.0, 3.0, 7.0), (0, 3.0, 5.0, 11.0)]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        assert math.isnan(result.per_class_mean_slowdowns()[2])
        assert result.monitor.per_class_window_means(drop_nan=True)[2].size == 0
        assert result.monitor.ratio_series(2, 0).size == 0

    def test_nothing_measured(self):
        rows = [(0, 0.0, 1.0, 2.0)]  # completes inside the warm-up
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        assert result.monitor.samples() == []
        assert math.isnan(result.system_mean_slowdown())

    def test_zero_class_one_mean_gives_nan_ratios(self):
        # Class 1 never waits: its mean slowdown is 0, so no ratio to it exists.
        result = ledger_result([(0, 5.0, 5.0, 6.0), (1, 4.0, 5.0, 6.5)])
        assert result.per_class_mean_slowdowns()[0] == 0.0
        assert all(math.isnan(r) for r in result.slowdown_ratios_to_first())
        silent = ledger_result([(1, 4.0, 5.0, 6.5)])
        assert all(math.isnan(r) for r in silent.slowdown_ratios_to_first())


class TestMeasurementCache:
    def test_later_completions_show_in_the_next_read(self):
        rows = [(0, 1.0, 2.0, 6.0), (1, 2.0, 3.0, 7.0), (2, 3.0, 5.0, 11.0), (0, 4.0, 8.0, 14.0)]
        result = ledger_result(rows[:2])
        assert_reads_match_oracle(result, rows[:2])
        complete_rows(result.ledger, rows[2:])
        assert_reads_match_oracle(result, rows)

    def test_rows_that_never_complete_are_not_measured(self):
        rows = [(0, 1.0, 2.0, 6.0), (1, 2.0, 3.0, 7.0)]
        result = ledger_result(rows)
        assert_reads_match_oracle(result, rows)
        rid = result.ledger.append(0, 8.0, 1.0)
        result.ledger.start_service(rid, 9.0)  # starts, never completes
        assert_reads_match_oracle(result, rows)
