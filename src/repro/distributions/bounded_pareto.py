"""The Bounded Pareto distribution ``BP(k, p, alpha)``.

This is the heavy-tailed job-size model used throughout the paper (Sec. 2.1):
a Pareto distribution with shape ``alpha`` truncated to the interval
``[k, p]``, where ``k`` is the smallest possible job and ``p`` the largest.
The probability density function is

    f(x) = G * alpha * x^(-alpha - 1),        k <= x <= p,

with the normalising constant ``G = k^alpha / (1 - (k/p)^alpha)``.

All three moments needed by the slowdown analysis have closed forms
(Eqs. 3-5 of the paper); the special cases ``alpha == 1`` (for ``E[X]``) and
``alpha == 2`` (for ``E[X^2]``) are handled with the logarithmic limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DistributionError
from ..validation import require_positive
from .base import Distribution

__all__ = ["BoundedPareto"]

# Tolerance below which ``alpha`` is treated as equal to a raw-moment order,
# switching the closed form to its logarithmic limit to avoid catastrophic
# cancellation in ``(p^(n-alpha) - k^(n-alpha)) / (n - alpha)``.
_MOMENT_SINGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class BoundedPareto(Distribution):
    """Bounded Pareto distribution with lower bound ``k``, upper bound ``p``
    and shape parameter ``alpha``.

    Parameters
    ----------
    k:
        Smallest possible job size (strictly positive).
    p:
        Largest possible job size (strictly greater than ``k``).
    alpha:
        Shape parameter; smaller values produce burstier (more variable)
        job sizes.  The paper uses ``alpha = 1.5`` with ``k = 0.1`` and
        ``p = 100`` as the default workload.
    """

    k: float
    p: float
    alpha: float

    def __post_init__(self) -> None:
        require_positive(self.k, "k")
        require_positive(self.p, "p")
        require_positive(self.alpha, "alpha")
        if self.p <= self.k:
            raise DistributionError(
                f"upper bound p={self.p!r} must exceed lower bound k={self.k!r}"
            )

    # ------------------------------------------------------------------ #
    # Normalising constant and raw moments
    # ------------------------------------------------------------------ #
    @property
    def normalisation(self) -> float:
        """``G = k^alpha / (1 - (k/p)^alpha)`` from Eq. 2 of the paper."""
        ratio = (self.k / self.p) ** self.alpha
        return self.k**self.alpha / (1.0 - ratio)

    def raw_moment(self, order: float) -> float:
        """``E[X^order]`` for any real ``order`` (may be negative).

        The closed form is ``G * alpha / (order - alpha) *
        (p^(order - alpha) - k^(order - alpha))`` with a logarithmic limit at
        ``order == alpha``.  ``raw_moment(1)``, ``raw_moment(2)`` and
        ``raw_moment(-1)`` reproduce Eqs. 3, 4 and 5 of the paper.
        """
        g = self.normalisation
        exponent = order - self.alpha
        if abs(exponent) < _MOMENT_SINGULARITY_TOL:
            return g * self.alpha * math.log(self.p / self.k)
        return g * self.alpha / exponent * (self.p**exponent - self.k**exponent)

    def mean(self) -> float:
        return self.raw_moment(1.0)

    def second_moment(self) -> float:
        return self.raw_moment(2.0)

    def mean_inverse(self) -> float:
        return self.raw_moment(-1.0)

    # ------------------------------------------------------------------ #
    # Densities and sampling
    # ------------------------------------------------------------------ #
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.k) & (x <= self.p)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = self.normalisation * self.alpha * np.power(x, -self.alpha - 1.0)
        return np.where(inside, dens, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        denom = 1.0 - (self.k / self.p) ** self.alpha
        clipped = np.clip(x, self.k, self.p)
        vals = (1.0 - np.power(self.k / clipped, self.alpha)) / denom
        vals = np.where(x < self.k, 0.0, vals)
        vals = np.where(x >= self.p, 1.0, vals)
        return vals

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0.0) | (q > 1.0)):
            raise DistributionError("quantiles must lie in [0, 1]")
        # Invert F(x) = (1 - (k/x)^alpha) / denom  for x in [k, p].
        denom = 1.0 - (self.k / self.p) ** self.alpha
        x = self.k * np.power(1.0 - q * denom, -1.0 / self.alpha)
        return np.clip(x, self.k, self.p)

    @property
    def support(self) -> tuple[float, float]:
        return self.k, self.p

    # ------------------------------------------------------------------ #
    # Rate scaling (Lemma 2): the scaled family is again Bounded Pareto.
    # ------------------------------------------------------------------ #
    def scaled(self, rate: float) -> "BoundedPareto":
        """Distribution of ``X / rate``: ``BP(k / rate, p / rate, alpha)``.

        This is exactly Lemma 2 of the paper — the bounds stretch by the
        reciprocal rate while the shape parameter is unchanged, so
        ``E[X_r] = E[X]/rate``, ``E[X_r^2] = E[X^2]/rate^2`` and
        ``E[1/X_r] = rate * E[1/X]``.
        """
        require_positive(rate, "rate")
        return BoundedPareto(self.k / rate, self.p / rate, self.alpha)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_default(cls) -> "BoundedPareto":
        """The workload of Sec. 4.1: ``BP(k=0.1, p=100, alpha=1.5)``."""
        return cls(k=0.1, p=100.0, alpha=1.5)

    @classmethod
    def with_mean(
        cls, mean: float, p: float, alpha: float, *, tol: float = 1e-12
    ) -> "BoundedPareto":
        """Construct a ``BP(k, p, alpha)`` whose mean equals ``mean``.

        The lower bound ``k`` is found by bisection on the strictly
        increasing map ``k -> E[X]``.  Useful for building workloads whose
        average request size equals one "time unit" exactly.
        """
        require_positive(mean, "mean")
        require_positive(p, "p")
        require_positive(alpha, "alpha")
        lo = min(mean, p) * 1e-12
        hi = min(mean, p * (1.0 - 1e-12))
        if not cls(hi, p, alpha).mean() >= mean >= cls(lo, p, alpha).mean():
            raise DistributionError(
                f"no Bounded Pareto with upper bound {p} and shape {alpha} "
                f"has mean {mean}"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cls(mid, p, alpha).mean() < mean:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, hi):
                break
        return cls(0.5 * (lo + hi), p, alpha)
