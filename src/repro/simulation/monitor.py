"""Measurement configuration and windowed monitors.

The paper's measurement protocol (Sec. 4.1): warm the simulator up for
10,000 time units, measure class slowdowns every 1,000 time units until
60,000 time units, and average the per-window statistics.  A *time unit* is
the processing time of an average-size request, so all durations here are
expressed in multiples of the workload's mean service time.

:class:`MeasurementConfig` captures the protocol; :class:`WindowedMonitor`
derives per-window, per-class and whole-run slowdown statistics from a
run's ledger in one cached pass; replication workers run it before shipping
a result home, so the parent reads a small table, not ledger rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ParameterError
from ..validation import require_non_negative, require_positive
from .ledger import RequestLedger

__all__ = [
    "MeasurementConfig",
    "WindowSample",
    "WindowedMonitor",
    "window_span",
    "windowed_time_average",
    "fleet_availability",
]


def window_span(index: int, *, warmup: float, window: float) -> tuple[float, float]:
    """The half-open ``[start, end)`` edges of measurement window ``index``.

    Window ``index`` holds the completions whose floor of
    ``(time - warmup) / window`` is ``index``: an event landing exactly on
    an edge belongs to the *later* window.
    """
    start = warmup + index * window
    return start, start + window


def windowed_time_average(
    entries, *, warmup: float, window: float, num_windows: int
) -> np.ndarray:
    """Per-window time averages of a piecewise-constant vector series.

    ``entries`` is a sequence of ``(time, values)`` pairs — each vector holds
    from its time until the next entry's (the last holds forever).  Returns a
    ``(num_windows, len(values))`` matrix whose row ``i`` is the series'
    time average over :func:`window_span`'s window ``i``.  This is the one
    window-overlap computation behind :func:`fleet_availability` and the
    assigned-rate and capacity columns of
    :func:`repro.experiments.telemetry_probe.health_rows`.
    """
    require_non_negative(warmup, "warmup")
    require_positive(window, "window")
    if num_windows < 0:
        raise ParameterError(f"num_windows must be >= 0, got {num_windows}")
    entries = sorted(entries, key=lambda entry: entry[0])
    if not entries:
        raise ParameterError("a piecewise-constant series needs at least one entry")
    width = len(entries[0][1])
    out = np.zeros((num_windows, width), dtype=float)
    for index, (start, values) in enumerate(entries):
        if len(values) != width:
            raise ParameterError("series entries disagree on the vector length")
        end = entries[index + 1][0] if index + 1 < len(entries) else float("inf")
        values = np.asarray(values, dtype=float)
        if not values.any():
            continue
        for w in range(num_windows):
            window_start, window_end = window_span(w, warmup=warmup, window=window)
            overlap = min(end, window_end) - max(start, window_start)
            if overlap > 0.0:
                out[w] += values * (overlap / window)
    return out


@dataclass(frozen=True)
class MeasurementConfig:
    """Warm-up, horizon and window lengths, in "time units" (mean service times).

    Attributes mirror Sec. 4.1: ``warmup=10_000``, ``horizon=60_000``,
    ``window=1_000``, estimation history of 5 windows, 100 replications.
    Scaled-down defaults are used by the test-suite and benches; the full
    paper protocol is available via :meth:`paper`.
    """

    warmup: float = 2_000.0
    horizon: float = 12_000.0
    window: float = 1_000.0
    estimation_history: int = 5
    replications: int = 5

    def __post_init__(self) -> None:
        require_non_negative(self.warmup, "warmup")
        require_positive(self.horizon, "horizon")
        require_positive(self.window, "window")
        if self.horizon <= self.warmup:
            raise ParameterError("horizon must exceed warmup")
        if self.estimation_history <= 0:
            raise ParameterError("estimation_history must be > 0")
        if self.replications <= 0:
            raise ParameterError("replications must be > 0")

    @classmethod
    def paper(cls) -> "MeasurementConfig":
        """The full protocol of Sec. 4.1 (expensive: ~60k time units x 100 runs)."""
        return cls(
            warmup=10_000.0,
            horizon=60_000.0,
            window=1_000.0,
            estimation_history=5,
            replications=100,
        )

    @classmethod
    def quick(cls) -> "MeasurementConfig":
        """A fast configuration for unit tests and smoke benches."""
        return cls(warmup=500.0, horizon=3_000.0, window=250.0, replications=3)

    @property
    def measurement_duration(self) -> float:
        return self.horizon - self.warmup

    def scaled_to_time_units(self, time_unit: float) -> "MeasurementConfig":
        """Convert from abstract time units into simulated seconds.

        ``time_unit`` is the mean full-rate service time of the workload; the
        returned config expresses warm-up, horizon and window in the same
        units as the service-time distribution, which is what the simulator
        consumes.
        """
        require_positive(time_unit, "time_unit")
        return MeasurementConfig(
            warmup=self.warmup * time_unit,
            horizon=self.horizon * time_unit,
            window=self.window * time_unit,
            estimation_history=self.estimation_history,
            replications=self.replications,
        )


@dataclass(frozen=True)
class WindowSample:
    """Per-class mean slowdowns measured over one window."""

    start: float
    end: float
    mean_slowdowns: tuple[float, ...]
    counts: tuple[int, ...]

    def ratio(self, numerator: int, denominator: int) -> float:
        """Slowdown ratio between two classes in this window (NaN when undefined)."""
        num = self.mean_slowdowns[numerator]
        den = self.mean_slowdowns[denominator]
        if math.isnan(num) or math.isnan(den) or den == 0.0:
            return float("nan")
        return num / den


class _Measurement(NamedTuple):
    """:meth:`WindowedMonitor._measurement`'s table, keyed on the completion
    count: ``(windows, classes)`` means (NaN where silent) and counts from
    window ``first`` on, plus the whole-run per-class and system means."""

    completed: int
    first: int
    means: np.ndarray
    counts: np.ndarray
    class_means: tuple[float, ...]
    system_mean: float


class WindowedMonitor:
    """Per-class slowdown statistics, window by window.

    Completed requests are attributed to the window containing their
    completion time; requests completing before ``warmup`` are discarded, as
    in the paper.  Windows between the first and last observed completion
    that saw no completions at all are still emitted (all-NaN means, zero
    counts), so the per-window series of different classes stay time-aligned
    even when a quiet class skips a window.

    The monitor is a read-only view over the run's
    :class:`~repro.simulation.ledger.RequestLedger`: nothing is recorded per
    completion.  One cached pass over the completion log builds a small
    table that every read below, and the result's whole-run means, share.
    """

    def __init__(
        self,
        num_classes: int,
        *,
        warmup: float,
        window: float,
        ledger: RequestLedger,
    ) -> None:
        if num_classes <= 0:
            raise ParameterError("num_classes must be > 0")
        require_non_negative(warmup, "warmup")
        require_positive(window, "window")
        self.num_classes = int(num_classes)
        self.warmup = float(warmup)
        self.window = float(window)
        self._ledger = ledger
        self._table: _Measurement | None = None

    @property
    def ledger(self) -> RequestLedger:
        """The backing ledger."""
        return self._ledger

    def _measurement(self) -> _Measurement:
        """One pass over the post-warm-up completions, cached until more complete.

        Per class, one mask keeps the slowdowns in log order (the whole-run
        mean) and one ``np.searchsorted`` over the sorted window indices cuts
        each window's group as a contiguous slice.  ``np.add.reduce`` over it
        is the pairwise sum ``np.mean`` takes, so every mean is bit-identical
        to ``np.mean`` over the group in log order.
        """
        ledger = self._ledger
        cached = self._table
        if cached is not None and cached.completed == ledger.num_completed:
            return cached
        ids = ledger.completed_ids
        completion = ledger.completion_time[ids]
        keep = completion >= self.warmup
        ids = ids[keep]
        slowdowns = ledger.slowdowns(ids)
        classes = ledger.class_index[ids]
        indices = ((completion[keep] - self.warmup) // self.window).astype(np.int64)
        first = int(indices.min()) if ids.size else 0
        width = int(indices.max()) - first + 1 if ids.size else 0
        means = np.full((width, self.num_classes), np.nan)
        counts = np.zeros((width, self.num_classes), dtype=np.int64)
        class_means = []
        for c in range(self.num_classes):
            mask = classes == c
            values = slowdowns[mask]
            class_means.append(float(np.mean(values)) if values.size else math.nan)
            windows = indices[mask]
            if np.any(windows[1:] < windows[:-1]):
                # Hand-driven ``complete`` calls may log out of time order; a
                # stable sort keeps the log order within each window.
                order = np.argsort(windows, kind="stable")
                values, windows = values[order], windows[order]
            edges = np.searchsorted(windows, np.arange(first, first + width + 1)).tolist()
            for w in range(width):
                lo, hi = edges[w], edges[w + 1]
                if hi > lo:
                    means[w, c] = np.add.reduce(values[lo:hi]) / (hi - lo)
                    counts[w, c] = hi - lo
        system_mean = float(np.mean(slowdowns)) if slowdowns.size else math.nan
        self._table = _Measurement(
            ledger.num_completed, first, means, counts, tuple(class_means), system_mean
        )
        return self._table

    def samples(self) -> list[WindowSample]:
        """Per-window summaries in time order (empty windows included), read
        from the cached measurement table (see :meth:`_measurement`)."""
        table = self._measurement()
        return [
            WindowSample(
                *window_span(table.first + offset, warmup=self.warmup, window=self.window),
                mean_slowdowns=tuple(means),
                counts=tuple(counts),
            )
            for offset, (means, counts) in enumerate(
                zip(table.means.tolist(), table.counts.tolist())
            )
        ]

    def ratio_series(self, numerator: int, denominator: int) -> np.ndarray:
        """Per-window slowdown ratios between two classes (NaNs dropped).

        :meth:`WindowSample.ratio`'s rule, vectorised: a window where either
        mean is NaN or the denominator's is zero has no ratio.
        """
        means = self._measurement().means
        num, den = means[:, numerator], means[:, denominator]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(den == 0.0, np.nan, num / den)
        return ratios[~np.isnan(ratios)]

    def per_class_window_means(self, *, drop_nan: bool = False) -> list[np.ndarray]:
        """For each class, the vector of its per-window mean slowdowns.

        By default the per-class arrays stay aligned window-by-window (NaN
        where a class completed no request in a window) so that ratio
        computations can pair them up; pass ``drop_nan=True`` for standalone
        per-class statistics.
        """
        means = self._measurement().means
        columns = [means[:, c].copy() for c in range(self.num_classes)]
        return [col[~np.isnan(col)] for col in columns] if drop_nan else columns


def fleet_availability(timeline, *, warmup: float, window: float, num_windows: int) -> np.ndarray:
    """Fraction of each measurement window each node spent *live*.

    ``timeline`` is a piecewise-constant fleet history — a sequence of
    ``(time, node_states, capacities)`` entries as recorded by
    :attr:`repro.cluster.ClusterServerModel.fleet_timeline`, where each
    entry holds from its time until the next entry's.  States equal to
    ``"live"`` count as available; draining and down nodes do not (a
    draining node still serves its old queue but accepts nothing new, so it
    adds no dispatchable capacity).

    Returns a ``(num_windows, num_nodes)`` float matrix; window index ``i``
    spans ``[warmup + i * window, warmup + (i + 1) * window)``.  A thin
    wrapper over :func:`windowed_time_average` with the live indicator as
    the piecewise-constant vector, so window-edge semantics cannot drift
    from the monitor's.
    """
    entries = list(timeline)
    if not entries:
        raise ParameterError("fleet timeline must have at least one entry")
    num_nodes = len(entries[0][1])
    for _time, states, _capacities in entries:
        if len(states) != num_nodes:
            raise ParameterError("fleet timeline entries disagree on the node count")
    live_series = [
        (time, [1.0 if state == "live" else 0.0 for state in states])
        for time, states, _capacities in entries
    ]
    return windowed_time_average(
        live_series, warmup=warmup, window=window, num_windows=num_windows
    )
