"""Strict priority scheduling from the related work.

:class:`StrictPriorityScheduler` is the server-side differentiation mechanism
the paper argues is *insufficient* for proportional slowdown differentiation
(Secs. 1 and 5): lower-priority classes run only when no higher-priority
request is waiting (Almeida et al. 1998).  It differentiates but cannot
control the *spacing* between classes, which is what the scheduler ablation
bench and ``examples/scheduler_comparison.py`` show next to the
proportional-share disciplines.  It reuses the per-class FCFS queues of
:class:`~repro.scheduling.base.Scheduler`.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import SchedulingError
from .base import Scheduler

__all__ = ["StrictPriorityScheduler"]


class StrictPriorityScheduler(Scheduler):
    """Non-preemptive strict priority: class 0 is the highest priority."""

    def __init__(self, num_classes: int, priorities: Sequence[int] | None = None) -> None:
        super().__init__(num_classes)
        if priorities is None:
            priorities = list(range(num_classes))
        if sorted(priorities) != list(range(num_classes)):
            raise SchedulingError("priorities must be a permutation of 0..N-1 (0 = highest)")
        self._priorities = tuple(int(p) for p in priorities)

    def _select_class(self, now: float) -> int:
        return min(self.backlogged_classes(), key=lambda c: self._priorities[c])
