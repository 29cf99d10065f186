"""Common interface for proportional-share and priority schedulers.

The paper assumes (Sec. 2.2) that a server's processing rate "can be
proportionally allocated to a number of task servers" using mechanisms such
as GPS, PGPS or lottery scheduling.  The idealised simulation model gives
each class its own task server running at the allocated rate; the schedulers
in this package provide the *realistic* counterpart: a single full-speed
processor that serves one request at a time and decides, whenever it becomes
free, which class's head-of-line request to run next so that the long-run
service shares match the allocated rates.

A scheduler therefore manages one FCFS queue per class and exposes:

* :meth:`Scheduler.set_weights` — update the per-class shares (the PSD
  controller calls this after every re-allocation);
* :meth:`Scheduler.enqueue` — a request of a class arrived;
* :meth:`Scheduler.select` — the processor is idle: pick the next request.

Schedulers are non-preemptive and work-conserving, mirroring
packet-by-packet fair queueing.
"""

from __future__ import annotations

import abc
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import SchedulingError
from ..validation import require_non_negative, require_positive_sequence

__all__ = ["QueuedJob", "Scheduler", "WeightedScheduler"]


@dataclass
class QueuedJob:
    """A request waiting inside a scheduler.

    ``payload`` carries an opaque reference (the simulator's request object)
    through the scheduler untouched.
    """

    class_index: int
    size: float
    arrival_time: float
    payload: object | None = None


class Scheduler(abc.ABC):
    """Base class: per-class FCFS queues plus a selection policy."""

    def __init__(self, num_classes: int) -> None:
        if num_classes <= 0:
            raise SchedulingError("num_classes must be > 0")
        self.num_classes = int(num_classes)
        self._queues: list[deque[QueuedJob]] = [deque() for _ in range(self.num_classes)]

    # ------------------------------------------------------------------ #
    # Queue management
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        class_index: int,
        size: float,
        now: float,
        payload: object | None = None,
    ) -> QueuedJob:
        """Add a request of ``class_index`` with service demand ``size``."""
        self._check_class(class_index)
        require_non_negative(now, "now")
        if size <= 0.0:
            raise SchedulingError(f"job size must be > 0, got {size}")
        job = QueuedJob(
            class_index=class_index, size=float(size), arrival_time=float(now), payload=payload
        )
        self._queues[class_index].append(job)
        self._on_enqueue(job, now)
        return job

    def select(self, now: float) -> QueuedJob | None:
        """Remove and return the next request to serve, or ``None`` if idle."""
        if self.total_backlog() == 0:
            return None
        class_index = self._select_class(now)
        self._check_class(class_index)
        if not self._queues[class_index]:
            raise SchedulingError(
                f"scheduler selected empty class {class_index}; this is a bug in the policy"
            )
        job = self._queues[class_index].popleft()
        self._on_dequeue(job, now)
        return job

    def backlog(self, class_index: int) -> int:
        """Number of requests waiting in ``class_index``'s queue."""
        self._check_class(class_index)
        return len(self._queues[class_index])

    def total_backlog(self) -> int:
        return sum(len(q) for q in self._queues)

    def backlogged_classes(self) -> list[int]:
        return [i for i, q in enumerate(self._queues) if q]

    def peek(self, class_index: int) -> QueuedJob | None:
        """The head-of-line request of a class, without removing it."""
        self._check_class(class_index)
        return self._queues[class_index][0] if self._queues[class_index] else None

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _select_class(self, now: float) -> int:
        """Return the index of the backlogged class to serve next."""

    def _on_enqueue(self, job: QueuedJob, now: float) -> None:
        """Hook called after a job is appended (for tag bookkeeping)."""

    def _on_dequeue(self, job: QueuedJob, now: float) -> None:
        """Hook called after a job is removed for service."""

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_class(self, class_index: int) -> None:
        if not (0 <= class_index < self.num_classes):
            raise SchedulingError(f"class index {class_index} out of range [0, {self.num_classes})")


class WeightedScheduler(Scheduler):
    """A scheduler whose policy is parameterised by per-class weights.

    Weights are interpreted as relative service shares; they need not sum to
    one.  :meth:`set_weights` may be called at any time (between selections),
    which is how the adaptive controller pushes new rate allocations into a
    shared-processor server.
    """

    def __init__(self, num_classes: int, weights: Sequence[float] | None = None) -> None:
        super().__init__(num_classes)
        if weights is None:
            weights = [1.0] * num_classes
        self._weights: tuple[float, ...] = ()
        self.set_weights(weights)

    @property
    def weights(self) -> tuple[float, ...]:
        return self._weights

    def set_weights(self, weights: Sequence[float]) -> None:
        checked = require_positive_sequence(weights, "weights")
        if len(checked) != self.num_classes:
            raise SchedulingError(f"expected {self.num_classes} weights, got {len(checked)}")
        self._weights = checked
        self._on_weights_changed()

    def _on_weights_changed(self) -> None:
        """Hook for policies that cache derived quantities (e.g. DRR increments)."""
