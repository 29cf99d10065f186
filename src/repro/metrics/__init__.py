"""Statistics used to evaluate PSD provisioning.

Percentile bands of windowed slowdown ratios (Figs. 5-6) and
achieved-vs-target ratio comparisons (Figs. 9-10).
"""

from .percentile import PercentileBand, percentile_band
from .ratios import RatioComparison, achieved_ratios, compare_to_targets

__all__ = [
    "PercentileBand",
    "percentile_band",
    "RatioComparison",
    "achieved_ratios",
    "compare_to_targets",
]
