"""The adaptive PSD controller: periodic load estimation + rate re-allocation.

Figure 1 of the paper shows the control loop: request generators feed
per-class waiting queues; a load estimator observes each class; a rate
allocator recomputes the task servers' processing rates every estimation
window (1000 time units in the paper).  :class:`PsdController` is that loop's
brain, kept deliberately simulation-agnostic: the simulator (or a real
server) pushes window observations in and pulls fresh rate vectors out.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import ParameterError, StabilityError
from ..types import TrafficClass
from .allocation import PsdRateAllocator, RateAllocation
from .load_estimator import LoadEstimator, WindowedLoadEstimator
from .psd import PsdSpec

__all__ = ["ControllerDecision", "PsdController"]


@dataclass(frozen=True)
class ControllerDecision:
    """One re-allocation decision taken by the controller."""

    time: float
    estimated_arrival_rates: tuple[float, ...]
    estimated_loads: tuple[float, ...]
    rates: tuple[float, ...]
    feasible: bool


class PsdController:
    """Adaptive proportional-slowdown-differentiation controller.

    Parameters
    ----------
    classes:
        The traffic classes being served.  Their arrival rates are used only
        as the initial (prior) estimate; afterwards the controller relies on
        the load estimator.
    spec:
        The differentiation parameters.
    estimator:
        Load estimator; defaults to the paper's 5-window sliding mean seeded
        with the configured class rates.
    capacity:
        Total normalised processing capacity (1.0 for a single server).
    min_rate:
        Optional per-task-server rate floor forwarded to the allocator.
    overload_policy:
        What to do when the *estimated* load is infeasible (>= capacity):
        ``"scale"`` (default) proportionally scales the estimated loads down
        to a feasible level and allocates for those — this mimics a transient
        overload where the queues absorb the excess; ``"hold"`` keeps the
        previous allocation; ``"raise"`` propagates :class:`StabilityError`.
    """

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        spec: PsdSpec,
        *,
        estimator: LoadEstimator | None = None,
        capacity: float = 1.0,
        min_rate: float = 0.0,
        overload_policy: str = "scale",
        overload_headroom: float = 0.02,
    ) -> None:
        if len(classes) != spec.num_classes:
            raise ParameterError("classes and spec must have the same number of classes")
        if overload_policy not in ("scale", "hold", "raise"):
            raise ParameterError(
                f"overload_policy must be 'scale', 'hold' or 'raise', got {overload_policy!r}"
            )
        if not (0.0 < overload_headroom < 1.0):
            raise ParameterError("overload_headroom must lie in (0, 1)")
        self.classes = tuple(classes)
        self.spec = spec
        self.allocator = PsdRateAllocator(spec, capacity=capacity, min_rate=min_rate)
        self.capacity = float(capacity)
        self.overload_policy = overload_policy
        self.overload_headroom = float(overload_headroom)
        if estimator is None:
            estimator = WindowedLoadEstimator(
                len(classes),
                history=5,
                prior_arrival_rates=[c.arrival_rate for c in classes],
                prior_offered_loads=[c.offered_load for c in classes],
            )
        if estimator.num_classes != len(classes):
            raise ParameterError("estimator and classes disagree on the number of classes")
        self.estimator = estimator
        self.decisions: list[ControllerDecision] = []
        self._current = self._initial_allocation()

    # ------------------------------------------------------------------ #
    # Public API used by the simulator / server
    # ------------------------------------------------------------------ #
    @property
    def current_rates(self) -> tuple[float, ...]:
        """The processing-rate vector currently in force."""
        return self._current.rates

    @property
    def current_allocation(self) -> RateAllocation:
        return self._current

    def observe_window(
        self,
        time: float,
        window_length: float,
        arrivals: Sequence[int],
        work: Sequence[float],
        slowdowns: Sequence[float] | None = None,
    ) -> ControllerDecision:
        """Feed one completed estimation window and re-allocate (Eq. 17
        ignores the measured ``slowdowns``).

        Returns the decision (including the new rate vector), which is also
        appended to :attr:`decisions` for post-run analysis.
        """
        self.estimator.observe_window(window_length, arrivals, work)
        estimate = self.estimator.estimate()
        rates, feasible = self._allocate_for_estimate(
            estimate.arrival_rates, estimate.offered_loads
        )
        decision = ControllerDecision(
            time=float(time),
            estimated_arrival_rates=estimate.arrival_rates,
            estimated_loads=estimate.offered_loads,
            rates=rates,
            feasible=feasible,
        )
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _initial_allocation(self) -> RateAllocation:
        rates, _ = self._allocate_for_estimate(
            tuple(c.arrival_rate for c in self.classes),
            tuple(c.offered_load for c in self.classes),
        )
        loads = tuple(c.offered_load for c in self.classes)
        return RateAllocation(
            rates=rates,
            offered_loads=loads,
            total_load=sum(loads),
            predicted_slowdowns=tuple(float("nan") for _ in self.classes),
        )

    def _allocate_for_estimate(
        self, arrival_rates: Sequence[float], offered_loads: Sequence[float]
    ) -> tuple[tuple[float, ...], bool]:
        estimated_classes = self._estimated_classes(arrival_rates, offered_loads)
        total = sum(c.offered_load for c in estimated_classes)
        feasible = total < self.capacity
        if not feasible:
            if self.overload_policy == "raise":
                raise StabilityError(f"estimated load {total:.6g} exceeds capacity {self.capacity}")
            if self.overload_policy == "hold" and hasattr(self, "_current"):
                return self._current.rates, False
            # "scale": shrink the estimate to capacity * (1 - headroom).
            factor = self.capacity * (1.0 - self.overload_headroom) / total
            estimated_classes = tuple(
                c.with_arrival_rate(c.arrival_rate * factor) for c in estimated_classes
            )
        allocation = self.allocator.allocate(estimated_classes)
        if feasible:
            self._current = allocation
        else:
            self._current = RateAllocation(
                rates=allocation.rates,
                offered_loads=tuple(float(load) for load in offered_loads),
                total_load=total,
                predicted_slowdowns=allocation.predicted_slowdowns,
            )
        return allocation.rates, feasible

    def _estimated_classes(
        self, arrival_rates: Sequence[float], offered_loads: Sequence[float]
    ) -> tuple[TrafficClass, ...]:
        """Build TrafficClass copies whose arrival rates match the estimate.

        The estimator reports loads (work per time); the allocator works with
        arrival rates and the configured service distributions.  When the
        estimated load implies a different mean job size than the configured
        distribution (sampling noise), we trust the *load* for the stability
        term by adjusting the effective arrival rate ``load / E[X]`` whenever
        the observed arrival rate is zero, and otherwise use the observed
        arrival rate directly — this mirrors the paper, which estimates both
        quantities but allocates from the class load.
        """
        out = []
        for cls, rate, load in zip(self.classes, arrival_rates, offered_loads):
            mean = cls.service.mean()
            if rate > 0.0:
                effective = load / mean if load > 0.0 else rate
            else:
                effective = load / mean if load > 0.0 else 0.0
            out.append(cls.with_arrival_rate(effective))
        return tuple(out)
