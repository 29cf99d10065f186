"""Weighted Fair Queueing (packet-by-packet GPS).

WFQ/PGPS [Parekh & Gallager 1993] emulates the GPS fluid server one job at a
time: each arriving job receives a *virtual finish tag* computed against the
system virtual time, and whenever the processor becomes free the backlogged
job with the smallest finish tag is served.  The classic bound states that a
job finishes under PGPS no later than its GPS finish time plus
``max_job_size / capacity``, which is what the tests verify against
:func:`repro.scheduling.gps.simulate_gps`.

Maintaining the exact GPS virtual time requires simulating the fluid system
alongside the packet system; :class:`WeightedFairQueueing` does this with the
standard piecewise-linear virtual-time update (virtual time advances at rate
``1 / sum of backlogged weights``).
"""

from __future__ import annotations

from collections.abc import Sequence

from .base import QueuedJob, WeightedScheduler

__all__ = ["WeightedFairQueueing"]


class WeightedFairQueueing(WeightedScheduler):
    """Packet-by-packet GPS (PGPS / WFQ) over per-class FCFS queues.

    The per-class finish tag of an arriving job is

        F_c = max(V(now), F_c_previous) + size / w_c

    where ``V`` is the GPS virtual time.  ``V`` advances at rate
    ``1 / sum_{backlogged} w_c`` while the (virtual) GPS system is busy and
    resets when it empties.  Because jobs are enqueued and selected at
    real-time instants provided by the caller, the virtual time is advanced
    lazily on every interaction.
    """

    def __init__(self, num_classes: int, weights: Sequence[float] | None = None) -> None:
        super().__init__(num_classes, weights)
        self._virtual_time = 0.0
        self._last_update = 0.0
        self._last_finish_tag = [0.0] * num_classes
        # Jobs currently inside the *virtual GPS* system: (finish_tag, class).
        self._gps_backlog: list[list[float]] = [[] for _ in range(num_classes)]
        self._finish_tags: dict[int, float] = {}
        self._tag_counter = 0

    # ----------------------------------------------------------------- #
    # Virtual-time bookkeeping
    # ----------------------------------------------------------------- #
    def _active_weight(self) -> float:
        return sum(self.weights[c] for c in range(self.num_classes) if self._gps_backlog[c])

    def _advance_virtual_time(self, now: float) -> None:
        """Advance V from the last update instant to ``now``.

        Between updates the GPS backlog can drain class by class; we advance
        piecewise, removing virtual jobs as their finish tags are reached.
        """
        if now < self._last_update:
            # The caller's clock should be monotone; tolerate equal times.
            now = self._last_update
        remaining = now - self._last_update
        while remaining > 0.0:
            active = self._active_weight()
            if active == 0.0:
                break
            # The next virtual departure happens after this much real time:
            next_tag = min(tags[0] for tags in self._gps_backlog if tags)
            dt_to_departure = (next_tag - self._virtual_time) * active
            if dt_to_departure > remaining:
                self._virtual_time += remaining / active
                remaining = 0.0
            else:
                self._virtual_time = next_tag
                remaining -= max(dt_to_departure, 0.0)
                for tags in self._gps_backlog:
                    while tags and tags[0] <= self._virtual_time + 1e-15:
                        tags.pop(0)
        if self._active_weight() == 0.0:
            # GPS system empty: virtual time resets (standard convention).
            self._virtual_time = 0.0
            for c in range(self.num_classes):
                self._last_finish_tag[c] = 0.0
        self._last_update = now

    # ----------------------------------------------------------------- #
    # Scheduler hooks
    # ----------------------------------------------------------------- #
    def _on_enqueue(self, job: QueuedJob, now: float) -> None:
        self._advance_virtual_time(now)
        c = job.class_index
        start = max(self._virtual_time, self._last_finish_tag[c])
        finish = start + job.size / self.weights[c]
        self._last_finish_tag[c] = finish
        self._finish_tags[id(job)] = finish
        # Insert into the virtual GPS backlog keeping tags sorted.
        tags = self._gps_backlog[c]
        tags.append(finish)
        tags.sort()

    def _select_class(self, now: float) -> int:
        self._advance_virtual_time(now)
        best_class = -1
        best_tag = float("inf")
        for c in self.backlogged_classes():
            head = self.peek(c)
            assert head is not None
            tag = self._finish_tags.get(id(head), float("inf"))
            if tag < best_tag:
                best_tag = tag
                best_class = c
        return best_class

    def _on_dequeue(self, job: QueuedJob, now: float) -> None:
        self._finish_tags.pop(id(job), None)

