"""Exponential service-time distribution.

Section 5 of the paper points out that for an exponential service-time
distribution ``E[1/X]`` does not exist (the integral diverges at zero), so
there is no finite expected slowdown for an M/M/1 FCFS queue — one reason
for the Bounded Pareto model.  :meth:`Exponential.mean_inverse` therefore
returns ``math.inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..validation import require_positive
from .base import Distribution

__all__ = ["Exponential"]


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential service-time distribution with the given ``mean``."""

    mean_value: float

    def __post_init__(self) -> None:
        require_positive(self.mean_value, "mean_value")

    @property
    def rate_parameter(self) -> float:
        """The exponential rate ``mu = 1 / mean``."""
        return 1.0 / self.mean_value

    def mean(self) -> float:
        return self.mean_value

    def second_moment(self) -> float:
        return 2.0 * self.mean_value**2

    def mean_inverse(self) -> float:
        # Diverges: the density is positive at arbitrarily small job sizes.
        return math.inf

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        mu = self.rate_parameter
        return np.where(x >= 0.0, mu * np.exp(-mu * x), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, 1.0 - np.exp(-self.rate_parameter * x), 0.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return -self.mean_value * np.log1p(-q)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(self.mean_value, size)

    def scaled(self, rate: float) -> "Exponential":
        require_positive(rate, "rate")
        return Exponential(self.mean_value / rate)
