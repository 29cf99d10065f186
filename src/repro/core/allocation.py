"""Processing-rate allocation for proportional slowdown differentiation.

This module implements the paper's central mechanism (Eq. 17): split the
server's (normalised) processing capacity among per-class task servers so
that each class first receives its own processing requirement
``lambda_i E[X_i]`` and the *residual* capacity ``1 - rho`` is divided in
proportion to the delta-scaled, workload-weighted arrival rates:

    r_i = lambda_i E[X_i]
          + (1 - rho) * (C_i lambda_i / delta_i) / sum_j (C_j lambda_j / delta_j)

with ``C_i = E[X_i^2] E[1/X_i] / 2`` and ``rho = sum_j lambda_j E[X_j]``.
When every class uses the same service-time distribution the constants
``C_i`` cancel and the expression is exactly Eq. 17 of the paper.  Under this
allocation Theorem 1 gives per-class expected slowdowns in the exact ratios
``delta_i : delta_j`` (Eq. 18), which is the PSD property.

The arithmetic lives in one float kernel, :func:`_psd_rates`, which takes
each class's mean ``E[X_i]`` and constant ``C_i`` as plain numbers: the
controllers fix them once at construction and call the kernel every
estimation window, and :func:`allocate_rates` derives them from the
classes.  Eq. 18 costs the kernel one division per class, because its
predictions ``delta_i * sum_j (C_j lambda_j / delta_j) / (1 - rho)`` reuse
Eq. 17's weight sum and load.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import AllocationError, StabilityError
from ..types import TrafficClass
from ..validation import require_in_range, require_positive
from .psd import PsdSpec, _slowdown_constant

__all__ = ["RateAllocation", "allocate_rates"]


@dataclass(frozen=True)
class RateAllocation:
    """The result of a processing-rate allocation.

    Attributes
    ----------
    rates:
        Normalised processing rate ``r_i`` of every task server; sums to the
        capacity passed to the allocator (1.0 by default).
    offered_loads:
        Per-class offered loads ``lambda_i E[X_i]`` used in the allocation.
    total_load:
        System utilisation ``rho``.
    predicted_slowdowns:
        Eq. 18 closed-form expected slowdowns under this allocation.
    """

    rates: tuple[float, ...]
    offered_loads: tuple[float, ...]
    total_load: float
    predicted_slowdowns: tuple[float, ...]

    @property
    def residual_capacity(self) -> float:
        """Capacity left after covering the raw processing requirements."""
        return sum(self.rates) - sum(self.offered_loads)

    @property
    def per_class_utilisations(self) -> tuple[float, ...]:
        """Utilisation of every task server, ``rho_i = load_i / r_i``."""
        return tuple(load / rate for load, rate in zip(self.offered_loads, self.rates))

    def as_dict(self) -> dict[str, tuple[float, ...] | float]:
        return {
            "rates": self.rates,
            "offered_loads": self.offered_loads,
            "total_load": self.total_load,
            "predicted_slowdowns": self.predicted_slowdowns,
        }


def allocate_rates(
    classes: Sequence[TrafficClass],
    spec: PsdSpec,
    *,
    capacity: float = 1.0,
    min_rate: float = 0.0,
) -> RateAllocation:
    """Compute the PSD processing-rate allocation (Eq. 17).

    Parameters
    ----------
    classes:
        The traffic classes (arrival rates, service distributions, deltas are
        taken from ``spec``, not from the classes' own ``delta`` fields).
    spec:
        The differentiation parameters.
    capacity:
        Total normalised processing capacity to distribute (1.0 for a single
        server; other values let callers model a server pool).
    min_rate:
        Optional floor on each task server's rate.  A class with zero arrival
        rate would otherwise receive exactly zero capacity; a small floor
        keeps its task server responsive to newly arriving requests between
        re-allocations.  The floor is taken out of the residual capacity and
        must leave the allocation feasible.

    Raises
    ------
    ParameterError
        If a service distribution has infinite ``E[X^2]`` or ``E[1/X]``.
    StabilityError
        If the total offered load is at least ``capacity``.
    AllocationError
        If the floors are infeasible.
    """
    if len(classes) != spec.num_classes:
        raise AllocationError(
            f"spec has {spec.num_classes} deltas but {len(classes)} classes were given"
        )
    require_positive(capacity, "capacity")
    require_in_range(min_rate, "min_rate", 0.0, capacity)
    rates, loads, rho, predicted = _psd_rates(
        [cls.arrival_rate for cls in classes],
        [cls.service.mean() for cls in classes],
        [_slowdown_constant(cls) for cls in classes],
        spec.deltas,
        capacity,
        min_rate,
    )
    return RateAllocation(rates, loads, rho, predicted)


def _psd_rates(
    arrival_rates: Sequence[float],
    means: Sequence[float],
    constants: Sequence[float],
    deltas: Sequence[float],
    capacity: float,
    min_rate: float,
) -> tuple[tuple[float, ...], tuple[float, ...], float, tuple[float, ...]]:
    """Eq. 17 and Eq. 18 over floats: ``(rates, loads, rho, predicted)``.

    ``means[i]`` is ``E[X_i]`` and ``constants[i]`` is ``C_i``; the caller
    has validated every argument.  All-idle classes split the capacity
    evenly and predict zero slowdowns.
    """
    offered = []
    weights = []
    for rate, mean, c, delta in zip(arrival_rates, means, constants, deltas):
        offered.append(rate * mean)
        weights.append(c * rate / delta)
    loads = tuple(offered)
    rho = sum(loads)
    if rho >= capacity:
        raise StabilityError(
            f"total offered load {rho:.6g} exceeds capacity {capacity}; "
            "the PSD allocation is infeasible"
        )
    weight_sum = sum(weights)

    if weight_sum <= 0.0:
        # No class has traffic: split the capacity evenly (respecting floors).
        even = capacity / len(loads)
        rates = tuple(max(even, min_rate) for _ in loads)
        scale = capacity / sum(rates)
        return tuple(r * scale for r in rates), loads, rho, (0.0,) * len(loads)

    residual = capacity - rho
    rates = [load + residual * weight / weight_sum for load, weight in zip(loads, weights)]
    if min_rate > 0.0:
        rates = _apply_floor(rates, loads, min_rate, capacity)

    unit_rho, unit_weight_sum = rho, weight_sum
    if capacity != 1.0:
        # Re-normalise to unit capacity: a server pool of capacity c serving
        # load rho behaves (for these closed forms) like a unit server with
        # load rho / c and arrival rates divided by c.
        unit_rates = [rate / capacity for rate in arrival_rates]
        unit_rho = sum([rate * mean for rate, mean in zip(unit_rates, means)])
        if unit_rho >= 1.0:
            raise StabilityError(f"total offered load rho={unit_rho:.6g} >= 1; PSD is infeasible")
        unit_weight_sum = sum(
            [c * rate / delta for c, rate, delta in zip(constants, unit_rates, deltas)]
        )
    predicted = tuple([delta * unit_weight_sum / (1.0 - unit_rho) for delta in deltas])
    return tuple(rates), loads, rho, predicted


def _apply_floor(
    rates: list[float], loads: tuple[float, ...], min_rate: float, capacity: float
) -> list[float]:
    """Raise under-floor rates to ``min_rate`` and rescale the others' surplus.

    The surplus (rate above its own offered load) of the unfloored classes is
    shrunk proportionally so the vector still sums to ``capacity`` and every
    task server stays stable (rate > offered load).
    """
    floored = [max(r, min_rate) for r in rates]
    excess = sum(floored) - capacity
    if excess <= 1e-15:
        return floored
    adjustable = [i for i, (r, f) in enumerate(zip(rates, floored)) if f == r and r > loads[i]]
    surplus = sum(floored[i] - loads[i] for i in adjustable)
    if surplus <= excess:
        raise AllocationError(
            f"min_rate={min_rate} is infeasible: not enough residual capacity "
            "to guarantee the floors while keeping every task server stable"
        )
    shrink = (surplus - excess) / surplus
    for i in adjustable:
        floored[i] = loads[i] + (floored[i] - loads[i]) * shrink
    return floored
