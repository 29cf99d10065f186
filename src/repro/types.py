"""Shared value types used across the analytic, core and simulation layers.

The central abstraction is :class:`TrafficClass`: one request class of the
PSD model, described by its Poisson arrival rate, its (full-rate) service-time
distribution and its differentiation parameter ``delta``.  A sequence of
traffic classes plus a total server capacity fully determines both the
analytic predictions of Sec. 2-3 and the simulation of Sec. 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from .distributions.base import Distribution
from .errors import ParameterError
from .validation import require_non_negative, require_positive

__all__ = ["TrafficClass", "scale_arrival_rates", "total_offered_load"]


@dataclass(frozen=True)
class TrafficClass:
    """One request class of the PSD model.

    Parameters
    ----------
    name:
        Human-readable label ("class-1", "gold", ...).
    arrival_rate:
        Poisson arrival rate ``lambda_i`` in requests per time unit.
    service:
        Service-time distribution of the class *at full server rate*.  The
        paper uses the same Bounded Pareto for every class; the library also
        accepts per-class distributions (the rate allocation then uses the
        per-class moments, which reduces to Eq. 17 when the distributions
        coincide).
    delta:
        Differentiation parameter ``delta_i`` of the PSD model (Eq. 16).
        Smaller delta means better (smaller) target slowdown; by convention
        class 1 is the highest class with the smallest delta.
    """

    name: str
    arrival_rate: float
    service: Distribution
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("TrafficClass.name must be a non-empty string")
        require_non_negative(self.arrival_rate, "arrival_rate")
        require_positive(self.delta, "delta")
        if not isinstance(self.service, Distribution):
            raise ParameterError(
                f"service must be a Distribution, got {type(self.service).__name__}"
            )

    @property
    def offered_load(self) -> float:
        """``rho_i = lambda_i * E[X_i]`` against unit server capacity."""
        return self.arrival_rate * self.service.mean()

    def with_arrival_rate(self, arrival_rate: float) -> "TrafficClass":
        """Copy of this class with a different arrival rate."""
        return replace(self, arrival_rate=arrival_rate)

    def with_delta(self, delta: float) -> "TrafficClass":
        """Copy of this class with a different differentiation parameter."""
        return replace(self, delta=delta)


def total_offered_load(classes: Sequence[TrafficClass]) -> float:
    """System utilisation ``rho = sum_i lambda_i E[X_i]`` against unit capacity."""
    if not classes:
        raise ParameterError("classes must be non-empty")
    return sum(cls.offered_load for cls in classes)


def scale_arrival_rates(classes: Sequence[TrafficClass], factor: float) -> tuple[TrafficClass, ...]:
    """Scale every class's arrival rate by ``factor`` (used for load sweeps)."""
    require_non_negative(factor, "factor")
    return tuple(cls.with_arrival_rate(cls.arrival_rate * factor) for cls in classes)
