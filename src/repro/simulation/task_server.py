"""A rate-scalable FCFS task server.

The paper's simulation model (Fig. 1) dedicates one task server to every
request class: requests of the class wait in a FCFS queue and are served one
at a time at the task server's currently allocated processing rate.  The rate
can change while a request is in service (the rate allocator runs every
estimation window); the server therefore tracks the *remaining work* of the
in-service request and re-bases its completion whenever the rate changes,
exactly as a proportional-share CPU scheduler would.

The server is columnar and batched: arrivals are integer ledger row ids
queued in blocks (:meth:`FcfsTaskServer.submit_batch`), and completions are
computed in bulk by :meth:`FcfsTaskServer.drain` — legal because between two
rate changes the FCFS run's completion times are a deterministic left fold
of the arrival block.  Lifecycle timestamps are written straight into the
:class:`~repro.simulation.ledger.RequestLedger` columns.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..validation import require_non_negative
from .engine import SimulationEngine
from .ledger import RequestLedger

__all__ = ["FcfsTaskServer"]

#: Shared zero-length drain result: most drain calls on the cluster walk's
#: per-completion cadence return nothing, so the empty pair is allocated
#: once (callers only read it).
_EMPTY_RIDS = np.empty(0, dtype=np.int64)
_EMPTY_TIMES = np.empty(0, dtype=np.float64)

#: Below this run length the drain writes lifecycle columns with the scalar
#: ledger calls — identical values, but without the per-call array
#: construction and vectorised NaN screens that dwarf a one-request run.
_SCALAR_BATCH_LIMIT = 8


class FcfsTaskServer:
    """FCFS queue plus a single service position running at a mutable rate.

    Arrivals are pushed in blocks via :meth:`submit_batch` (or one at a time
    via :meth:`push`) and completions are computed in bulk by :meth:`drain`.
    The caller must drain the server to the engine clock before every
    :meth:`set_rate`, so the progress made at the old rate is accounted
    first.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        class_index: int,
        rate: float,
        *,
        ledger: RequestLedger | None = None,
    ) -> None:
        require_non_negative(rate, "rate")
        self.engine = engine
        self.class_index = int(class_index)
        self.ledger = ledger if ledger is not None else RequestLedger()
        self._rate = float(rate)
        self.in_service: int | None = None
        self._remaining_work = 0.0
        self._last_progress_time = 0.0
        self.busy_time = 0.0
        self.completed_count = 0
        # The pending block (rids + gathered arrival/size columns), consumed
        # from ``_pending_pos`` by successive drains.
        # Plain Python lists: the cluster walk pushes one arrival at a time
        # (O(1) append) and the drain's left fold reads scalars anyway.
        self._pending_rids: list[int] = []
        self._pending_arrivals: list[float] = []
        self._pending_sizes: list[float] = []
        self._pending_pos = 0

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    @property
    def rate(self) -> float:
        """The task server's current normalised processing rate."""
        return self._rate

    @property
    def backlog(self) -> int:
        """Requests queued and not yet started (not counting the one in
        service) as of the last drain."""
        return len(self._pending_rids) - self._pending_pos

    @property
    def is_busy(self) -> bool:
        return self.in_service is not None

    def submit_batch(self, rids: np.ndarray) -> None:
        """Queue a time-ordered block of this class's row ids."""
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return
        foreign = self.ledger.classes_of(rids) != self.class_index
        if foreign.any():
            raise SimulationError(
                f"request of class {self.ledger.class_of(int(rids[foreign][0]))} "
                f"submitted to task server {self.class_index}"
            )
        pos = self._pending_pos
        if pos:
            del self._pending_rids[:pos]
            del self._pending_arrivals[:pos]
            del self._pending_sizes[:pos]
            self._pending_pos = 0
        self._pending_rids.extend(rids.tolist())
        self._pending_arrivals.extend(self.ledger.arrivals_of(rids).tolist())
        self._pending_sizes.extend(self.ledger.sizes_of(rids).tolist())

    def push(self, rid: int, arrival: float, size: float) -> None:
        """Queue a single arrival (the cluster dispatch walk).

        The caller hands over the already-gathered ledger columns so the
        per-request hot path performs three list appends and nothing else.
        """
        self._pending_rids.append(rid)
        self._pending_arrivals.append(arrival)
        self._pending_sizes.append(size)

    def next_completion_time(self) -> float:
        """When the next completion would occur, ``inf`` if idle or frozen.

        Computes the very value :meth:`drain` would produce for the head of
        the line — the carried in-service completion, or the first pending
        arrival's fold step — so a caller interleaving several servers'
        completions (the cluster walk) sees bit-identical timestamps without
        draining anything.
        """
        rate = self._rate
        if self.in_service is not None:
            if rate <= 0.0:
                return float("inf")
            return self._last_progress_time + self._remaining_work / rate
        pos = self._pending_pos
        if pos >= len(self._pending_rids) or rate <= 0.0:
            return float("inf")
        arrival = self._pending_arrivals[pos]
        free = self._last_progress_time
        start = arrival if arrival > free else free
        return start + self._pending_sizes[pos] / rate

    def drain(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Advance the server to ``now``; returns the completions.

        Serves everything due between the last drain and ``now`` at the
        current (unchanged) rate: finish the carried in-service request at
        ``last_progress + remaining / rate``, then left-fold the pending
        block — ``start = max(arrival, previous completion)``,
        ``completion = start + size / rate`` — with scalar float arithmetic,
        the very additions one completion event per request would perform,
        hence bit-identical timestamps.  The lifecycle
        columns are written in one vectorised batch per drain (FCFS busy
        runs are short at moderate load, so per-run array operations would
        cost more than they fold).  Returns ``(rids, times)`` in completion
        order; the caller owns the completion log (the runs of several
        servers must be merged by time first).
        """
        done_rids: list[int] = []
        done_times: list[float] = []
        rate = self._rate
        free = -np.inf
        # Phase 1: the request carried in service from before this drain.
        if self.in_service is not None:
            if rate <= 0.0:
                return self._empty_drain()
            completion = self._last_progress_time + self._remaining_work / rate
            if completion > now:
                return self._empty_drain()
            rid = self.in_service
            self.ledger.complete_unlogged(rid, completion)
            self.busy_time += completion - self._last_progress_time
            self._last_progress_time = completion
            self.completed_count += 1
            self.in_service = None
            self._remaining_work = 0.0
            done_rids.append(rid)
            done_times.append(completion)
            free = completion
        # Phase 2: left-fold the pending block up to ``now``.  The buffers
        # are indexed in place from the cursor — no per-drain slice copies,
        # so the cluster walk's many tiny drains stay O(consumed) each.
        pos = self._pending_pos
        rids = self._pending_rids
        arrivals = self._pending_arrivals
        sizes = self._pending_sizes
        n = len(rids)
        if pos < n and arrivals[pos] <= now:
            if rate <= 0.0:
                # Zero rate: the head still occupies the service position
                # (frozen until the next re-allocation), later arrivals queue.
                arrival = arrivals[pos]
                start = arrival if arrival > free else free
                rid = rids[pos]
                self.ledger.start_service(rid, start)
                self.in_service = rid
                self._remaining_work = sizes[pos]
                self._last_progress_time = start
                pos += 1
            else:
                starts: list[float] = []
                batch_rids: list[int] = []
                busy = 0.0
                while pos < n:
                    arrival = arrivals[pos]
                    if arrival > now:
                        break
                    start = arrival if arrival > free else free
                    completion = start + sizes[pos] / rate
                    if completion > now:
                        # Mid-service at ``now``: record the start, carry
                        # the remaining work into the next drain.
                        rid = rids[pos]
                        self.ledger.start_service(rid, start)
                        self.in_service = rid
                        self._remaining_work = sizes[pos]
                        self._last_progress_time = start
                        pos += 1
                        break
                    starts.append(start)
                    batch_rids.append(rids[pos])
                    done_times.append(completion)
                    busy += completion - start
                    free = completion
                    pos += 1
                if batch_rids:
                    if len(batch_rids) < _SCALAR_BATCH_LIMIT:
                        ledger = self.ledger
                        offset = len(done_times) - len(batch_rids)
                        for k, batch_rid in enumerate(batch_rids):
                            ledger.start_service(batch_rid, starts[k])
                            ledger.complete_unlogged(batch_rid, done_times[offset + k])
                    else:
                        batch = np.asarray(batch_rids, dtype=np.int64)
                        completions = np.asarray(done_times[-len(batch_rids) :])
                        self.ledger.start_service_batch(batch, np.asarray(starts))
                        self.ledger.complete_batch(batch, completions)
                    self.busy_time += busy
                    self.completed_count += len(batch_rids)
                    done_rids.extend(batch_rids)
                    if self.in_service is None:
                        self._last_progress_time = free
            self._pending_pos = pos
        if not done_rids:
            return self._empty_drain()
        return (
            np.asarray(done_rids, dtype=np.int64),
            np.asarray(done_times, dtype=np.float64),
        )

    def _empty_drain(self) -> tuple[np.ndarray, np.ndarray]:
        return _EMPTY_RIDS, _EMPTY_TIMES

    def outstanding(self) -> list[tuple[float, int, float]]:
        """Predicted ``(completion, rid, size)`` of every undrained request.

        The in-service request and then the queued block, in FCFS order,
        with exactly the arithmetic :meth:`drain` performs at the current
        rate — so the values are the completion times the next drains will
        write, as long as the rate stays unchanged.  ``size`` is the full
        service demand.  A frozen server (rate zero) predicts nothing.
        """
        rate = self._rate
        if rate <= 0.0:
            return []
        out: list[tuple[float, int, float]] = []
        free = -np.inf
        if self.in_service is not None:
            free = self._last_progress_time + self._remaining_work / rate
            out.append((free, self.in_service, self.ledger.size_of(self.in_service)))
        arrivals = self._pending_arrivals
        sizes = self._pending_sizes
        rids = self._pending_rids
        for pos in range(self._pending_pos, len(rids)):
            arrival = arrivals[pos]
            start = arrival if arrival > free else free
            free = start + sizes[pos] / rate
            out.append((free, rids[pos], sizes[pos]))
        return out

    def set_rate(self, rate: float) -> None:
        """Change the processing rate at the engine clock.

        The remaining work of the in-service request is first decreased by
        the progress made at the old rate; the next drain completes it at
        the new rate.
        """
        require_non_negative(rate, "rate")
        now = self.engine.now
        if self.in_service is not None and self._rate > 0.0:
            elapsed = now - self._last_progress_time
            self._remaining_work = max(self._remaining_work - elapsed * self._rate, 0.0)
            self.busy_time += elapsed
        self._last_progress_time = now
        self._rate = float(rate)
