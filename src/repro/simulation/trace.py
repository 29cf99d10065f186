"""Per-request traces and post-run query helpers.

Completed requests are exposed as immutable :class:`RequestRecord` snapshots
through a :class:`SimulationTrace`, which offers the slicing operations the
experiments need (filter by class, by time window, convert to NumPy arrays,
per-class mean slowdowns) so that figure drivers never re-implement ad-hoc
loops over the raw trace.

A trace is a read-only view over a run's
:class:`~repro.simulation.ledger.RequestLedger`.  Nothing is appended per
completion; vector queries (``slowdowns``, ``to_arrays``,
``per_class_counts``) reduce the columns directly, and :class:`RequestRecord`
objects are materialised lazily, in completion order, only when record
iteration is actually requested.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .ledger import RequestLedger

__all__ = ["RequestRecord", "SimulationTrace"]


@dataclass(frozen=True)
class RequestRecord:
    """Immutable snapshot of a completed request (``request_id`` is its ledger row)."""

    request_id: int
    class_index: int
    arrival_time: float
    size: float
    service_start_time: float
    completion_time: float

    @property
    def waiting_time(self) -> float:
        return self.service_start_time - self.arrival_time

    @property
    def response_time(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def service_duration(self) -> float:
        return self.completion_time - self.service_start_time

    @property
    def slowdown(self) -> float:
        """Queueing delay over the time actually spent in service (the paper's metric)."""
        return self.waiting_time / self.service_duration

    @property
    def demand_slowdown(self) -> float:
        """Queueing delay over the full-rate service demand ``size``."""
        return self.waiting_time / self.size


class SimulationTrace:
    """Completed-request records: a read-only view over a ledger."""

    def __init__(self, num_classes: int, *, ledger: RequestLedger) -> None:
        if num_classes <= 0:
            raise SimulationError("num_classes must be > 0")
        self.num_classes = int(num_classes)
        self._ledger = ledger

    @property
    def ledger(self) -> RequestLedger:
        """The backing ledger."""
        return self._ledger

    def _record_of(self, rid: int) -> RequestRecord:
        ledger = self._ledger
        return RequestRecord(
            request_id=int(rid),
            class_index=ledger.class_of(rid),
            arrival_time=ledger.arrival_of(rid),
            size=ledger.size_of(rid),
            service_start_time=ledger.start_of(rid),
            completion_time=ledger.completion_of(rid),
        )

    def _materialise(self, ids: np.ndarray) -> list[RequestRecord]:
        return [self._record_of(rid) for rid in ids]

    def _completed_ids(self, class_index: int | None = None) -> np.ndarray:
        """Completed row ids in completion order, optionally of one class."""
        ids = self._ledger.completed_ids
        if class_index is not None:
            ids = ids[self._ledger.class_index[ids] == class_index]
        return ids

    def __len__(self) -> int:
        return self._ledger.num_completed

    def __iter__(self):
        # One record at a time: callers that stop early never pay for
        # materialising the rest of the ledger.
        return (self._record_of(rid) for rid in self._completed_ids())

    @property
    def records(self) -> Sequence[RequestRecord]:
        return tuple(self._materialise(self._completed_ids()))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def for_class(self, class_index: int) -> list[RequestRecord]:
        return self._materialise(self._completed_ids(class_index))

    def in_window(self, start: float, end: float, *, by: str = "arrival") -> list[RequestRecord]:
        """Records whose ``arrival`` (default) or ``completion`` time lies in ``[start, end)``."""
        if by not in ("arrival", "completion"):
            raise SimulationError("by must be 'arrival' or 'completion'")
        ids = self._completed_ids()
        column = self._ledger.arrival_time if by == "arrival" else self._ledger.completion_time
        times = column[ids]
        return self._materialise(ids[(start <= times) & (times < end)])

    def slowdowns(self, class_index: int | None = None) -> np.ndarray:
        return self._ledger.slowdowns(self._completed_ids(class_index))

    def waiting_times(self, class_index: int | None = None) -> np.ndarray:
        return self._ledger.waiting_times(self._completed_ids(class_index))

    def mean_slowdown(self, class_index: int | None = None) -> float:
        values = self.slowdowns(class_index)
        return float(np.mean(values)) if values.size else float("nan")

    def per_class_mean_slowdowns(self) -> tuple[float, ...]:
        return tuple(self.mean_slowdown(c) for c in range(self.num_classes))

    def per_class_counts(self) -> tuple[int, ...]:
        counts = np.bincount(
            self._ledger.class_index[self._completed_ids()], minlength=self.num_classes
        )
        return tuple(int(c) for c in counts)

    def weighted_system_slowdown(self) -> float:
        """Request-weighted mean slowdown across all classes.

        This is the "achieved system slowdown" curve of Fig. 2 of the paper
        (the weighted slowdown of the classes).
        """
        return self.mean_slowdown(None)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Columnar view of the whole trace (for plotting or DataFrame-free analysis).

        ``request_id`` is the ledger row id of each record.
        """
        ids = self._completed_ids()
        ledger = self._ledger
        start = ledger.service_start_time[ids]
        arrival = ledger.arrival_time[ids]
        completion = ledger.completion_time[ids]
        waiting = start - arrival
        return {
            "request_id": ids.copy(),
            "class_index": ledger.class_index[ids],
            "arrival_time": arrival,
            "size": ledger.size[ids],
            "service_start_time": start,
            "completion_time": completion,
            "waiting_time": waiting,
            "slowdown": waiting / (completion - start),
        }
