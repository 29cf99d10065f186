"""Abstract interface for service-time distributions.

The slowdown analysis of the paper needs three moments of the service-time
distribution: the mean ``E[X]``, the second moment ``E[X^2]`` and the mean of
the reciprocal ``E[1/X]`` (Lemma 1).  Every distribution in this package
therefore exposes those three quantities analytically in addition to the
usual ``pdf``/``cdf``/``ppf``/``sample`` interface.

Lemma 2 of the paper describes what happens to a service-time distribution
when the work is executed by a task server that owns only a fraction ``r`` of
the full processing capacity: every service time is stretched by ``1/r``.
:meth:`Distribution.scaled` returns exactly that stretched distribution; every
distribution implements it in closed form, as a member of its own family.
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = ["Distribution"]


class Distribution(abc.ABC):
    """A continuous, strictly positive service-time (job-size) distribution."""

    # ------------------------------------------------------------------ #
    # Moments
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def mean(self) -> float:
        """``E[X]``: the mean service time."""

    @abc.abstractmethod
    def second_moment(self) -> float:
        """``E[X^2]``: the second raw moment of the service time."""

    @abc.abstractmethod
    def mean_inverse(self) -> float:
        """``E[1/X]``: the mean of the reciprocal service time.

        This is the moment that turns an expected queueing delay into an
        expected slowdown in Lemma 1 (``E[S] = E[W] E[1/X]`` for FCFS, where
        delay and size are independent).
        """

    def variance(self) -> float:
        """``Var[X] = E[X^2] - E[X]^2`` (always >= 0 up to rounding)."""
        return max(self.second_moment() - self.mean() ** 2, 0.0)

    def std(self) -> float:
        """Standard deviation of the service time."""
        return math.sqrt(self.variance())

    def squared_coefficient_of_variation(self) -> float:
        """``C^2 = Var[X] / E[X]^2``, the burstiness measure used in M/G/1."""
        mean = self.mean()
        return self.variance() / (mean * mean)

    # ------------------------------------------------------------------ #
    # Densities and sampling
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def pdf(self, x):
        """Probability density function evaluated element-wise at ``x``."""

    @abc.abstractmethod
    def cdf(self, x):
        """Cumulative distribution function evaluated element-wise at ``x``."""

    @abc.abstractmethod
    def ppf(self, q):
        """Quantile (inverse CDF) function evaluated element-wise at ``q``."""

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] | None = None):
        """Draw samples using inverse-CDF sampling.

        Subclasses may override this when a dedicated sampler is faster, but
        the inverse-CDF default guarantees every distribution is sampleable
        as soon as it defines :meth:`ppf`.
        """
        u = rng.random(size)
        return self.ppf(u)

    # ------------------------------------------------------------------ #
    # Support
    # ------------------------------------------------------------------ #
    @property
    def support(self) -> tuple[float, float]:
        """The ``(lower, upper)`` support of the distribution.

        ``upper`` may be ``math.inf``.  The default support is ``(0, inf)``.
        """
        return 0.0, math.inf

    # ------------------------------------------------------------------ #
    # Rate scaling (Lemma 2)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def scaled(self, rate: float) -> "Distribution":
        """Return the distribution of ``X / rate``.

        ``rate`` is the normalised processing rate of a task server
        (``0 < rate <= 1`` in the paper, although any positive rate is
        accepted).  The result is a member of the same family (e.g. Bounded
        Pareto, whose bounds simply divide by the rate).
        """

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, float]:
        """Return the analytic moments as a plain dictionary."""
        return {
            "mean": self.mean(),
            "second_moment": self.second_moment(),
            "mean_inverse": self.mean_inverse(),
            "variance": self.variance(),
            "scv": self.squared_coefficient_of_variation(),
        }
