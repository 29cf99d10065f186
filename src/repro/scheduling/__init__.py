"""Proportional-share and priority scheduling substrate.

The paper's rate-allocation strategy assumes a mechanism (GPS, PGPS, lottery
scheduling, ...) that can hand each per-class task server a configurable
share of the processing capacity.  This package implements those mechanisms —
a GPS fluid reference, WFQ/PGPS, start-time fair queueing, lottery and
deficit weighted round robin — plus the priority-based schedulers from the
related work that the experiments use as contrast (strict priority and
waiting-time priority).
"""

from .base import QueuedJob, Scheduler, WeightedScheduler
from .gps import FluidJob, GpsResult, simulate_gps
from .lottery import LotteryScheduler
from .priority import (
    SlowdownWtpScheduler,
    StrictPriorityScheduler,
    WaitingTimePriorityScheduler,
)
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
    "WaitingTimePriorityScheduler",
    "SlowdownWtpScheduler",
]
