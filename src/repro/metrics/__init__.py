"""Statistics used to evaluate PSD provisioning.

Percentile bands of windowed slowdown ratios (Figs. 5-6) and
achieved-vs-target ratio comparisons (Figs. 9-10).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".percentile": ("PercentileBand", "percentile_band"),
        ".ratios": ("RatioComparison", "achieved_ratios", "compare_to_targets"),
    },
)
