"""The adaptive PSD controller: periodic load estimation + rate re-allocation.

Figure 1 of the paper shows the control loop: request generators feed
per-class waiting queues; a load estimator observes each class; a rate
allocator recomputes the task servers' processing rates every estimation
window (1000 time units in the paper).  :class:`PsdController` is that loop's
brain, kept deliberately simulation-agnostic: the simulator (or a real
server) pushes window observations in and pulls fresh rate vectors out.

Per class, Eq. 17 needs only the estimated load and two numbers fixed for
the run: the mean job size ``E[X_i]`` and the constant
``C_i = E[X_i^2] E[1/X_i] / 2``.  The controller computes both once, at
construction, and every window feeds floats to the allocation kernel of
:mod:`repro.core.allocation`, the same arithmetic :func:`allocate_rates`
runs.  The Eq. 18 predictions in :attr:`PsdController.current_allocation`
come from that kernel's weight sum, not from a second pass over the classes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from ..errors import ParameterError, StabilityError
from ..types import TrafficClass
from ..validation import require_in_range, require_positive
from .allocation import RateAllocation, _psd_rates
from .load_estimator import LoadEstimator, WindowedLoadEstimator
from .psd import PsdSpec, _slowdown_constant

__all__ = ["ControllerDecision", "PsdController"]


class ControllerDecision(NamedTuple):
    """One re-allocation decision taken by the controller.

    A ``NamedTuple``, not a frozen dataclass: one is built every window and
    the tuple is the cheaper record.
    """

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
        self.capacity = require_positive(capacity, "capacity")
        self.min_rate = require_in_range(min_rate, "min_rate", 0.0, self.capacity)
        # Eq. 17's per-class constants, fixed for the run.
        self._means = tuple(c.service.mean() for c in self.classes)
        self._constants = tuple(_slowdown_constant(c) for c in self.classes)
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
        # The allocation in force as the kernel's (rates, loads, rho,
        # predicted); current_allocation wraps it in a record on first read.
        self._allocation: RateAllocation | None = None
        self._allocated = self._initial_allocation()

    # ------------------------------------------------------------------ #
    # Public API used by the simulator / server
    # ------------------------------------------------------------------ #
    @property
    def current_rates(self) -> tuple[float, ...]:
        """The processing-rate vector currently in force."""
        return self._allocated[0]

    @property
    def current_allocation(self) -> RateAllocation:
        """The allocation in force; its record is built on first read."""
        if self._allocation is None:
            self._allocation = RateAllocation(*self._allocated)
        return self._allocation

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
        return self._decide(time, window_length, arrivals, work, self.spec.deltas)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _decide(
        self,
        time: float,
        window_length: float,
        arrivals: Sequence[int],
        work: Sequence[float],
        deltas: Sequence[float],
    ) -> ControllerDecision:
        """Estimate, re-allocate with ``deltas`` and record the decision."""
        self.estimator.observe_window(window_length, arrivals, work)
        estimate = self.estimator.estimate()
        rates, feasible = self._reallocate(estimate.arrival_rates, estimate.offered_loads, deltas)
        decision = ControllerDecision(
            float(time), estimate.arrival_rates, estimate.offered_loads, rates, feasible
        )
        self.decisions.append(decision)
        return decision

    def _initial_allocation(self) -> tuple:
        loads = tuple(c.offered_load for c in self.classes)
        rates, _ = self._reallocate(
            tuple(c.arrival_rate for c in self.classes), loads, self.spec.deltas
        )
        return rates, loads, sum(loads), tuple(float("nan") for _ in self.classes)

    def _reallocate(
        self,
        arrival_rates: Sequence[float],
        offered_loads: Sequence[float],
        deltas: Sequence[float],
    ) -> tuple[tuple[float, ...], bool]:
        """Eq. 17 for an estimate; sets the allocation in force.

        The estimator reports loads (work per time) and arrival rates.  The
        allocation trusts the *load*: a class's effective arrival rate is
        ``load / E[X]``, which absorbs sampling noise in the mean job size.
        A class with no estimated load falls back to its observed arrival
        rate — this mirrors the paper, which estimates both quantities but
        allocates from the class load.
        """
        effective = []
        offered = []
        for rate, load, mean in zip(arrival_rates, offered_loads, self._means):
            if load > 0.0:
                value = load / mean
            else:
                value = rate if rate > 0.0 else 0.0
            if not 0.0 <= value < math.inf:
                raise ParameterError(
                    f"estimated arrival rate must be finite and >= 0, got {value!r}"
                )
            effective.append(value)
            offered.append(value * mean)
        total = sum(offered)
        feasible = total < self.capacity
        if not feasible:
            if self.overload_policy == "raise":
                raise StabilityError(f"estimated load {total:.6g} exceeds capacity {self.capacity}")
            if self.overload_policy == "hold" and hasattr(self, "_allocated"):
                return self._allocated[0], False
            # "scale": shrink the estimate to capacity * (1 - headroom).
            factor = self.capacity * (1.0 - self.overload_headroom) / total
            effective = [value * factor for value in effective]
        rates, loads, rho, predicted = _psd_rates(
            effective, self._means, self._constants, deltas, self.capacity, self.min_rate
        )
        if feasible:
            self._allocated = (rates, loads, rho, predicted)
        else:
            # Report the raw estimated loads, not the scaled ones.
            raw = tuple(float(load) for load in offered_loads)
            self._allocated = (rates, raw, total, predicted)
        self._allocation = None
        return rates, feasible
