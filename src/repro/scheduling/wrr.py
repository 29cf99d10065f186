"""Deficit weighted round robin over per-class FCFS queues.

Classes are visited in a fixed cyclic order, and a class may only send a
request when its accumulated deficit covers the request's size (Shreedhar &
Varghese 1996).  The deficit counter makes the shares proportional in
*work* rather than in request count, which plain weighted round robin gets
wrong whenever the classes' request sizes differ.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .base import QueuedJob, WeightedScheduler

__all__ = ["DeficitWeightedRoundRobin"]


class DeficitWeightedRoundRobin(WeightedScheduler):
    """Deficit round robin: proportional shares in work rather than requests."""

    def __init__(
        self,
        num_classes: int,
        weights: Sequence[float] | None = None,
        *,
        quantum: float = 1.0,
    ) -> None:
        if quantum <= 0.0:
            raise ValueError("quantum must be > 0")
        self._quantum = float(quantum)
        self._deficits = [0.0] * num_classes
        self._cursor = 0
        super().__init__(num_classes, weights)

    def _on_weights_changed(self) -> None:
        total = sum(self.weights)
        self._increments = [self._quantum * w / total * self.num_classes for w in self.weights]

    def _select_class(self, now: float) -> int:
        guard = 0
        while True:
            c = self._cursor
            head = self.peek(c)
            if head is not None and self._deficits[c] >= head.size:
                # Keep serving this class while its deficit lasts (one DRR turn).
                return c
            # Advance the round-robin pointer; entering a backlogged class
            # grants it one quantum, entering an empty class clears its deficit.
            self._cursor = (self._cursor + 1) % self.num_classes
            nxt = self._cursor
            if self.peek(nxt) is not None:
                self._deficits[nxt] += self._increments[nxt]
            else:
                self._deficits[nxt] = 0.0
            guard += 1
            if guard > 10_000 * self.num_classes:
                # Degenerate configuration (e.g. enormous job with tiny
                # quantum); serve the class closest to affording its head job
                # to stay work-conserving.
                backlogged = self.backlogged_classes()
                return max(backlogged, key=lambda i: self._deficits[i])

    def _on_dequeue(self, job: QueuedJob, now: float) -> None:
        c = job.class_index
        self._deficits[c] = max(0.0, self._deficits[c] - job.size)
        if self.backlog(c) == 0:
            self._deficits[c] = 0.0
        if not math.isfinite(self._deficits[c]):
            self._deficits[c] = 0.0
