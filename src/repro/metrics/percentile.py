"""Percentile summaries of windowed slowdown ratios.

Figures 5 and 6 of the paper report, for every system load, the 5th, 50th
and 95th percentiles of the slowdown ratio between two classes measured over
1000-time-unit windows.  :class:`PercentileBand` captures one such
(5th, 50th, 95th) triple and :func:`percentile_band` computes it from a
ratio series.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["PercentileBand", "percentile_band"]


@dataclass(frozen=True)
class PercentileBand:
    """A (5th, 50th, 95th) percentile triple of a sample."""

    p5: float
    median: float
    p95: float
    count: int

    @property
    def spread(self) -> float:
        """Width of the band (95th minus 5th percentile)."""
        return self.p95 - self.p5

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the 5th-95th percentile band."""
        return self.p5 <= value <= self.p95


def percentile_band(values: Sequence[float] | np.ndarray) -> PercentileBand:
    """Compute the 5th/50th/95th percentile band of a sample (NaNs dropped)."""
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        nan = float("nan")
        return PercentileBand(nan, nan, nan, 0)
    return PercentileBand(
        p5=float(np.percentile(arr, 5)),
        median=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        count=int(arr.size),
    )
