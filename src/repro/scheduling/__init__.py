"""Proportional-share and priority scheduling substrate.

The paper's rate-allocation strategy assumes a mechanism (GPS, PGPS, lottery
scheduling, ...) that can hand each per-class task server a configurable
share of the processing capacity.  This package implements those mechanisms —
a GPS fluid reference, WFQ/PGPS, start-time fair queueing, lottery and
deficit weighted round robin — plus strict priority, the related-work
scheduler the scheduler ablation uses as contrast.
"""

from .base import QueuedJob, Scheduler, WeightedScheduler
from .gps import FluidJob, GpsResult, simulate_gps
from .lottery import LotteryScheduler
from .priority import StrictPriorityScheduler
from .sfq import StartTimeFairQueueing
from .wfq import WeightedFairQueueing
from .wrr import DeficitWeightedRoundRobin

__all__ = [
    "QueuedJob",
    "Scheduler",
    "WeightedScheduler",
    "FluidJob",
    "GpsResult",
    "simulate_gps",
    "WeightedFairQueueing",
    "StartTimeFairQueueing",
    "LotteryScheduler",
    "DeficitWeightedRoundRobin",
    "StrictPriorityScheduler",
]
