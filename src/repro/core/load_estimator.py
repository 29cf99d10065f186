"""Per-class load estimation for the adaptive rate allocator.

Section 4.1 of the paper: "The load estimator measured the arrival rate and
the incurred load for every class.  In the simulation, the load was estimated
for every thousand time units. ... the load for next thousand time units was
the average load in past five thousand time units."

:class:`WindowedLoadEstimator` reproduces exactly that scheme (a sliding mean
over the last ``history`` completed windows).  Two alternatives are provided
for the ablation benches: :class:`ExponentialSmoothingEstimator` (EWMA over
windows) and :class:`OracleLoadEstimator` (returns the true configured rates,
isolating estimation error from the allocation strategy itself).
"""

from __future__ import annotations

import abc
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import ParameterError
from ..validation import require_count, require_in_range

__all__ = [
    "LoadEstimate",
    "LoadEstimator",
    "WindowedLoadEstimator",
    "ExponentialSmoothingEstimator",
    "OracleLoadEstimator",
]


class LoadEstimate(NamedTuple):
    """Estimated per-class traffic for the next estimation window (a
    ``NamedTuple``: the controller takes one every window)."""

    arrival_rates: tuple[float, ...]
    offered_loads: tuple[float, ...]

    @property
    def total_load(self) -> float:
        return sum(self.offered_loads)


class LoadEstimator(abc.ABC):
    """Interface used by the adaptive controller.

    The simulation feeds the estimator one *observation* per class per
    estimation window: the number of arrivals and the total work (sum of
    full-rate service demands) that arrived in the window.  ``estimate``
    returns the arrival rates and offered loads to assume for the next
    window.
    """

    def __init__(self, num_classes: int) -> None:
        if num_classes <= 0:
            raise ParameterError("num_classes must be > 0")
        self.num_classes = int(num_classes)

    @abc.abstractmethod
    def observe_window(
        self, window_length: float, arrivals: Sequence[int], work: Sequence[float]
    ) -> None:
        """Record one completed estimation window.

        ``arrivals[i]`` is the request count of class ``i`` during the window
        and ``work[i]`` the sum of their full-rate service times.
        """

    @abc.abstractmethod
    def estimate(self) -> LoadEstimate:
        """Estimate of per-class arrival rates and offered loads for the next window."""

    def _check_observation(
        self, window_length: float, arrivals: Sequence[int], work: Sequence[float]
    ) -> None:
        if not 0.0 < window_length < math.inf:
            raise ParameterError(f"window_length must be finite and > 0, got {window_length!r}")
        if len(arrivals) != self.num_classes or len(work) != self.num_classes:
            raise ParameterError(
                "arrivals and work must have one entry per class "
                f"({self.num_classes}), got {len(arrivals)} and {len(work)}"
            )
        for i, (a, w) in enumerate(zip(arrivals, work)):
            # Chained comparisons are False for NaN, so NaN is rejected too.
            if not (0 <= a < math.inf and float(a).is_integer()):
                raise ParameterError(f"arrivals[{i}] must be a whole number >= 0, got {a!r}")
            if not 0.0 <= w < math.inf:
                raise ParameterError(f"work[{i}] must be finite and >= 0, got {w!r}")


class WindowedLoadEstimator(LoadEstimator):
    """Sliding-window mean over the last ``history`` windows (the paper's scheme).

    With the paper's defaults (window of 1000 time units, history of 5) the
    estimate for the next 1000 time units is the mean observed load of the
    past 5000 time units.  Before any window has completed the estimator
    falls back to the optional ``prior`` rates (or zeros).
    """

    def __init__(
        self,
        num_classes: int,
        *,
        history: int = 5,
        prior_arrival_rates: Sequence[float] | None = None,
        prior_offered_loads: Sequence[float] | None = None,
    ) -> None:
        super().__init__(num_classes)
        self.history = require_count(history, "history", 1)
        # One column per class and quantity, oldest window first.
        self._lengths: deque[float] = deque(maxlen=self.history)
        self._arrivals = [deque(maxlen=self.history) for _ in range(self.num_classes)]
        self._work = [deque(maxlen=self.history) for _ in range(self.num_classes)]
        self._prior_rates = self._check_prior(prior_arrival_rates)
        self._prior_loads = self._check_prior(prior_offered_loads)

    def _check_prior(self, values: Sequence[float] | None) -> tuple[float, ...]:
        if values is None:
            return tuple(0.0 for _ in range(self.num_classes))
        if len(values) != self.num_classes:
            raise ParameterError("prior must have one entry per class")
        return tuple(float(v) for v in values)

    def observe_window(
        self, window_length: float, arrivals: Sequence[int], work: Sequence[float]
    ) -> None:
        self._check_observation(window_length, arrivals, work)
        self._lengths.append(float(window_length))
        for column, a in zip(self._arrivals, arrivals):
            column.append(int(a))
        for column, w in zip(self._work, work):
            column.append(float(w))

    def estimate(self) -> LoadEstimate:
        if not self._lengths:
            return LoadEstimate(self._prior_rates, self._prior_loads)
        total_time = sum(self._lengths)
        return LoadEstimate(
            tuple([sum(column) / total_time for column in self._arrivals]),
            tuple([sum(column) / total_time for column in self._work]),
        )

    @property
    def windows_observed(self) -> int:
        return len(self._lengths)


class ExponentialSmoothingEstimator(LoadEstimator):
    """Exponentially weighted moving average over estimation windows.

    ``smoothing`` close to 1 reacts quickly (weights the latest window
    heavily); close to 0 it averages over a long history.  Provided for the
    estimator ablation bench.
    """

    def __init__(self, num_classes: int, *, smoothing: float = 0.3) -> None:
        super().__init__(num_classes)
        require_in_range(smoothing, "smoothing", 0.0, 1.0, inclusive_low=False)
        self.smoothing = float(smoothing)
        self._rates: list[float] | None = None
        self._loads: list[float] | None = None

    def observe_window(
        self, window_length: float, arrivals: Sequence[int], work: Sequence[float]
    ) -> None:
        self._check_observation(window_length, arrivals, work)
        rates = [a / window_length for a in arrivals]
        loads = [w / window_length for w in work]
        if self._rates is None:
            self._rates = rates
            self._loads = loads
            return
        s = self.smoothing
        self._rates = [s * new + (1.0 - s) * old for new, old in zip(rates, self._rates)]
        self._loads = [s * new + (1.0 - s) * old for new, old in zip(loads, self._loads)]

    def estimate(self) -> LoadEstimate:
        if self._rates is None or self._loads is None:
            zeros = tuple(0.0 for _ in range(self.num_classes))
            return LoadEstimate(zeros, zeros)
        return LoadEstimate(tuple(self._rates), tuple(self._loads))


@dataclass
class OracleLoadEstimator(LoadEstimator):
    """Returns the true configured arrival rates and loads.

    Removes estimation error entirely; the paper attributes most of the
    residual controllability error (Figs. 9-10) to load estimation, and the
    ablation bench quantifies that claim by swapping this oracle in.
    """

    true_arrival_rates: tuple[float, ...]
    true_offered_loads: tuple[float, ...]
    _observed: int = field(default=0, init=False)

    def __init__(
        self, true_arrival_rates: Sequence[float], true_offered_loads: Sequence[float]
    ) -> None:
        if len(true_arrival_rates) != len(true_offered_loads):
            raise ParameterError("rate and load vectors must have the same length")
        super().__init__(len(true_arrival_rates))
        self.true_arrival_rates = tuple(float(r) for r in true_arrival_rates)
        self.true_offered_loads = tuple(float(load) for load in true_offered_loads)
        self._observed = 0

    def observe_window(
        self, window_length: float, arrivals: Sequence[int], work: Sequence[float]
    ) -> None:
        self._check_observation(window_length, arrivals, work)
        self._observed += 1

    def estimate(self) -> LoadEstimate:
        return LoadEstimate(self.true_arrival_rates, self.true_offered_loads)
