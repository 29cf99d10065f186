"""Per-class request generators.

Each generator produces a Poisson arrival stream (exponential inter-arrival
times) of requests whose sizes are drawn from the class's service-time
distribution — the ``M/G_B/1`` traffic model of the paper when the size
distribution is Bounded Pareto.  Deterministic and trace-driven variants are
provided for tests and for replaying recorded workloads.

A :class:`RequestSource` draws its stream in fixed chunks of ``_CHUNK``
arrivals: ``_CHUNK`` gaps (:meth:`ArrivalProcess.draw_gaps`), then
``_CHUNK`` sizes (``sizes.sample(rng, _CHUNK)``), from the class RNG, with
the absolute times a ``np.cumsum`` over ``[last time, g1, ..., gK]`` — the
same left fold as the engine's ``now + gap``.  The block API
(:meth:`RequestSource.draw_block`) and the scalar API
(:meth:`~RequestSource.next_interarrival` / :meth:`~RequestSource.next_size`)
read the same buffered chunk, so both see one stream, which depends on the
(seed, class) pair and the chunk size alone — not on window length, block
bounds or how many blocks are drawn.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np

from ..distributions.base import Distribution
from ..errors import ParameterError
from ..types import TrafficClass
from ..validation import require_non_negative, require_positive

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "RequestSource",
    "TraceSource",
    "sources_from_classes",
]

#: Arrivals per generator refill.  Changing it changes every sample path.
_CHUNK = 1024


class ArrivalProcess(abc.ABC):
    """Produces successive inter-arrival times."""

    @abc.abstractmethod
    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Time until the next arrival (``+inf`` switches the class off)."""

    def draw_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The next ``n`` inter-arrival times as one float64 array.

        The default loops :meth:`next_interarrival` and stops at the first
        ``+inf`` (the class is off from then on, so the rest stay ``+inf``);
        subclasses override it with a vectorised draw.
        """
        gaps = np.full(n, math.inf)
        for i in range(n):
            gaps[i] = self.next_interarrival(rng)
            if gaps[i] == math.inf:
                break
        return gaps


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival times with the given rate (Poisson process)."""

    def __init__(self, rate: float) -> None:
        require_non_negative(rate, "rate")
        self.rate = float(rate)

    def next_interarrival(self, rng: np.random.Generator) -> float:
        if self.rate == 0.0:
            return float("inf")
        return float(rng.exponential(1.0 / self.rate))

    def draw_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.rate == 0.0:
            return np.full(n, math.inf)
        return rng.exponential(1.0 / self.rate, n)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals (used in tests for exact, noise-free scenarios)."""

    def __init__(self, interval: float) -> None:
        require_positive(interval, "interval")
        self.interval = float(interval)

    def next_interarrival(self, rng: np.random.Generator) -> float:
        return self.interval

    def draw_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.interval)


class RequestSource:
    """A stream of (inter-arrival, size) pairs for one traffic class."""

    def __init__(
        self,
        class_index: int,
        arrivals: ArrivalProcess,
        sizes: Distribution,
        rng: np.random.Generator,
    ) -> None:
        if class_index < 0:
            raise ParameterError("class_index must be >= 0")
        self.class_index = int(class_index)
        self.arrivals = arrivals
        self.sizes = sizes
        self.rng = rng
        # The buffered chunk and the chunk-relative cursors of the next gap
        # and the next size to hand out; a block release moves both.
        self._gaps = self._times = self._sizes = np.empty(0)
        self._last_time = 0.0
        self._gap_next = 0
        self._size_next = 0

    def _refill(self) -> None:
        """Draw the next chunk: ``_CHUNK`` gaps, then ``_CHUNK`` sizes."""
        gaps = np.asarray(self.arrivals.draw_gaps(self.rng, _CHUNK), dtype=np.float64)
        sizes = np.asarray(self.sizes.sample(self.rng, _CHUNK), dtype=np.float64)
        if gaps.shape != (_CHUNK,):
            raise ParameterError(f"draw_gaps returned shape {gaps.shape}, expected ({_CHUNK},)")
        if not (gaps >= 0.0).all():
            bad = gaps[~(gaps >= 0.0)][0]
            raise ParameterError(f"arrival process produced an invalid inter-arrival time {bad!r}")
        if not (sizes > 0.0).all():
            bad = sizes[~(sizes > 0.0)][0]
            raise ParameterError(f"size distribution produced a non-positive sample {bad!r}")
        self._times = np.cumsum(np.concatenate(([self._last_time], gaps)))[1:]
        self._gaps, self._sizes = gaps, sizes
        self._last_time = float(self._times[-1])
        self._gap_next = self._size_next = 0

    def _refill_scalar(self, other_cursor: int) -> None:
        if other_cursor != self._times.shape[0]:
            raise ParameterError("next_interarrival and next_size calls must alternate")
        self._refill()

    def next_interarrival(self) -> float:
        if self._gap_next == self._times.shape[0]:
            self._refill_scalar(self._size_next)
        gap = float(self._gaps[self._gap_next])
        self._gap_next += 1
        return gap

    def next_size(self) -> float:
        if self._size_next == self._times.shape[0]:
            self._refill_scalar(self._gap_next)
        size = float(self._sizes[self._size_next])
        self._size_next += 1
        return size

    def draw_block(self, bound: float, *, inclusive: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Every arrival strictly before ``bound`` (``<=`` if ``inclusive``)
        not yet released, as ``(times, sizes)`` float64 arrays.

        A ``searchsorted`` slice of the buffered chunk, refilled whenever a
        block reaches its end, so successive calls with increasing bounds
        tile one stream: the one :meth:`next_interarrival` /
        :meth:`next_size` read.  Arrivals at ``+inf`` (a class switched
        off) are never released.
        """
        side = "right" if inclusive and bound < math.inf else "left"
        times: list[np.ndarray] = []
        sizes: list[np.ndarray] = []
        while True:
            if self._size_next == self._times.shape[0]:
                self._refill()
            start = self._size_next
            end = max(start, int(np.searchsorted(self._times, bound, side=side)))
            self._gap_next = self._size_next = end
            times.append(self._times[start:end])
            sizes.append(self._sizes[start:end])
            if end < _CHUNK:
                break
        if len(times) == 1:
            return times[0], sizes[0]
        return np.concatenate(times), np.concatenate(sizes)


class TraceSource(RequestSource):
    """Replays a recorded sequence of (inter-arrival, size) pairs.

    The trace is held as two NumPy arrays and replayed by cursor — an
    ``np.float64`` array passed in is used as-is (no per-element Python
    objects are ever materialised), so million-request arrival logs loaded
    with :func:`~repro.simulation.trace_io.load_trace` replay without a
    memory spike.  Any other sequence is converted once via ``np.asarray``.

    Once the trace is exhausted the source reports an infinite inter-arrival
    time, which effectively switches the class off.
    """

    def __init__(
        self,
        class_index: int,
        interarrivals: Sequence[float] | np.ndarray,
        sizes: Sequence[float] | np.ndarray,
    ) -> None:
        if class_index < 0:
            raise ParameterError("class_index must be >= 0")
        gaps = np.asarray(interarrivals, dtype=float)
        demand = np.asarray(sizes, dtype=float)
        if gaps.ndim != 1 or demand.ndim != 1:
            raise ParameterError("interarrivals and sizes must be one-dimensional")
        if gaps.shape != demand.shape:
            raise ParameterError("interarrivals and sizes must have the same length")
        if gaps.size and (not np.all(np.isfinite(gaps)) or gaps.min() < 0.0):
            raise ParameterError("interarrivals must be finite and >= 0")
        if demand.size and (not np.all(np.isfinite(demand)) or demand.min() <= 0.0):
            raise ParameterError("sizes must be finite and > 0")
        self.class_index = int(class_index)
        self._interarrivals = gaps
        self._sizes = demand
        self._position = 0
        self._pending_size: float | None = None
        self._absolute_times: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self._interarrivals.size)

    @property
    def remaining(self) -> int:
        """Requests of the trace not yet replayed."""
        return len(self) - self._position

    def next_interarrival(self) -> float:
        if self._position >= self._interarrivals.size:
            self._pending_size = None
            return float("inf")
        gap = float(self._interarrivals[self._position])
        self._pending_size = float(self._sizes[self._position])
        self._position += 1
        return gap

    def next_size(self) -> float:
        if self._pending_size is None:
            raise ParameterError("trace exhausted: no size available")
        size = self._pending_size
        self._pending_size = None
        return size

    def draw_block(self, bound: float, *, inclusive: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised block replay: one ``searchsorted`` instead of a cursor
        loop.  The absolute arrival times are the running sum of the gaps —
        ``np.cumsum`` is the same left-to-right fold the per-event replay
        performs, so the times are bit-identical.
        """
        if self._pending_size is not None:
            raise ParameterError(
                "cannot mix per-event and block replay of the same trace source"
            )
        if self._absolute_times is None:
            self._absolute_times = np.cumsum(self._interarrivals)
        side = "right" if inclusive else "left"
        end = int(np.searchsorted(self._absolute_times, bound, side=side))
        start = self._position
        if end <= start:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        self._position = end
        return self._absolute_times[start:end], self._sizes[start:end]


def sources_from_classes(
    classes: Sequence[TrafficClass], rngs: Sequence[np.random.Generator]
) -> list[RequestSource]:
    """One Poisson request source per traffic class, each on its own RNG stream."""
    if len(classes) != len(rngs):
        raise ParameterError("classes and rngs must have the same length")
    return [
        RequestSource(i, PoissonArrivals(cls.arrival_rate), cls.service, rng)
        for i, (cls, rng) in enumerate(zip(classes, rngs))
    ]
