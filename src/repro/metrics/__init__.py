"""Statistics used to evaluate PSD provisioning.

Per-class slowdown summaries, percentile bands of windowed slowdown ratios
(Figs. 5-6), achieved-vs-target ratio comparisons (Figs. 9-10), and
cross-replication paper-vs-measured summaries.
"""

from .percentile import PercentileBand, bands_by_parameter, percentile_band
from .ratios import (
    RatioComparison,
    achieved_ratios,
    compare_to_targets,
    ratio_series_to_first,
)
from .slowdown import SlowdownStats, per_class_stats, relative_error, summarise_slowdowns
from .summary import SimulatedVsExpected, compare_simulated_expected, sweep_table_rows

__all__ = [
    "SlowdownStats",
    "summarise_slowdowns",
    "per_class_stats",
    "relative_error",
    "PercentileBand",
    "percentile_band",
    "bands_by_parameter",
    "RatioComparison",
    "achieved_ratios",
    "compare_to_targets",
    "ratio_series_to_first",
    "SimulatedVsExpected",
    "compare_simulated_expected",
    "sweep_table_rows",
]
