"""Proportional-share and priority scheduling substrate.

The paper's rate-allocation strategy assumes a mechanism (GPS, PGPS, lottery
scheduling, ...) that can hand each per-class task server a configurable
share of the processing capacity.  This package implements those mechanisms —
a GPS fluid reference, WFQ/PGPS, start-time fair queueing, lottery and
deficit weighted round robin — plus strict priority, the related-work
scheduler the scheduler ablation uses as contrast.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".base": ("QueuedJob", "Scheduler", "WeightedScheduler"),
        ".gps": ("FluidJob", "GpsResult", "simulate_gps"),
        ".lottery": ("LotteryScheduler",),
        ".priority": ("StrictPriorityScheduler",),
        ".sfq": ("StartTimeFairQueueing",),
        ".wfq": ("WeightedFairQueueing",),
        ".wrr": ("DeficitWeightedRoundRobin",),
    },
)
