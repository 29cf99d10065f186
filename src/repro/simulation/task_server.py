"""A rate-scalable FCFS task server.

The paper's simulation model (Fig. 1) dedicates one task server to every
request class: requests of the class wait in a FCFS queue and are served one
at a time at the task server's currently allocated processing rate.  The rate
can change while a request is in service (the rate allocator runs every
estimation window); the server therefore tracks the *remaining work* of the
in-service request and re-bases its completion whenever the rate changes,
exactly as a proportional-share CPU scheduler would.

The server is columnar and batched.  Queued requests live in three growable
NumPy columns (row id, arrival, size) consumed from a head cursor; appends
write slices (:meth:`FcfsTaskServer.submit_batch`) or scalars
(:meth:`FcfsTaskServer.push`) at the tail, and the columns compact or double
only when the tail runs out of room, so appends are amortised O(1) and the
queue is never concatenated.

Completions are computed in bulk by :meth:`FcfsTaskServer.drain` — legal
because between two rate changes an FCFS run is the Lindley recursion
``completion = max(arrival, previous completion) + size / rate``, a
deterministic left fold of the arrival block.  A drain folds each request's
*completion* exactly once and does everything else in bulk: the block is
cut at ``now`` on the arrivals (``searchsorted``), the service times come
from array divisions (correctly rounded, so bit-equal to the scalar
division), the fold is a comprehension over Python floats (in doubling
chunks, so a long queue behind a request still in service is not folded in
full), the run is cut at ``now`` on the completions (``bisect_right``), and
the starts are derived afterwards as ``np.maximum(arrival, previous
completion)`` — a max is exact, so no timestamp moves.  Starts and
completions then reach the :class:`~repro.simulation.ledger.RequestLedger`
in one checked :meth:`~repro.simulation.ledger.RequestLedger.serve_batch`
write.  Short blocks — the admission walk drains one or two requests per
call — take a scalar loop instead, which stops at the first request still
in service and writes the ledger row by row: there NumPy's per-call
overhead would cost more than the run.  (Under a cluster's completion
calendar the server queues nothing: the calendar keeps the queue, books
the same fold's completions, and hands the server each head it must hold
in service with :meth:`FcfsTaskServer.serve`.)

The recursion itself stays a per-request fold on purpose.  The operation
order ``max(arrival, f) + size / rate`` must be kept per request: max-plus
or ``cumsum`` forms of the recursion round differently and would move
timestamps, and an exact vectorised form (busy periods from a max-plus
estimate, then length-bucketed ``np.add.accumulate``) is bit-identical but
was measured 1.6–25× slower than the comprehension on drains of 30–1000
requests.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..errors import SimulationError
from ..validation import require_non_negative
from .engine import SimulationEngine
from .ledger import RequestLedger

__all__ = ["FcfsTaskServer"]

#: Shared zero-length drain result: most drain calls on the admission
#: walk's per-arrival cadence return nothing, so the empty pair is allocated
#: once (callers only read it).
_EMPTY_RIDS = np.empty(0, dtype=np.int64)
_EMPTY_TIMES = np.empty(0, dtype=np.float64)

#: Drains with fewer arrived requests than this (and cluster syncs with
#: fewer booked rows) take the scalar loop.
_SCALAR_BATCH_LIMIT = 32

#: Initial slots of the pending columns; they double on demand.
_INITIAL_CAPACITY = 64


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
        # The queued requests occupy slots [_head, _tail) of the pending
        # columns; drains advance the head, appends the tail.
        self._rids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._arrivals = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._sizes = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._head = 0
        self._tail = 0

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
        return self._tail - self._head

    @property
    def is_busy(self) -> bool:
        return self.in_service is not None

    @property
    def idle(self) -> bool:
        """Nothing in service and nothing queued: a drain would be a no-op."""
        return self.in_service is None and self._head == self._tail

    def _reserve(self, k: int) -> None:
        """Make room for ``k`` more slots at the tail.

        The live slots move to the front of the columns, which double until
        at least half of them is free afterwards — so the copy is paid at
        most once per half-capacity of appends.
        """
        head, tail = self._head, self._tail
        live = tail - head
        capacity = self._rids.shape[0]
        new_capacity = capacity
        while 2 * (live + k) > new_capacity:
            new_capacity *= 2
        for name in ("_rids", "_arrivals", "_sizes"):
            old = getattr(self, name)
            column = old if new_capacity == capacity else np.empty(new_capacity, dtype=old.dtype)
            column[:live] = old[head:tail]
            setattr(self, name, column)
        self._head = 0
        self._tail = live

    def submit_batch(self, rids: np.ndarray) -> None:
        """Queue a time-ordered block of this class's row ids."""
        rids = np.asarray(rids, dtype=np.int64)
        k = rids.shape[0]
        if k == 0:
            return
        ledger = self.ledger
        if k == 1:
            # The admission walk hands a cluster's members one row at a
            # time: scalar reads beat four one-element gathers.  A foreign
            # row falls through to the block check, which rejects it.
            rid = rids.item(0)
            if ledger.class_of(rid) == self.class_index:
                self.push(rid, ledger.arrival_of(rid), ledger.size_of(rid))
                return
        foreign = ledger.classes_of(rids) != self.class_index
        if foreign.any():
            raise SimulationError(
                f"request of class {ledger.class_of(int(rids[foreign][0]))} "
                f"submitted to task server {self.class_index}"
            )
        if self._tail + k > self._rids.shape[0]:
            self._reserve(k)
        tail = self._tail
        self._rids[tail : tail + k] = rids
        self._arrivals[tail : tail + k] = ledger.arrivals_of(rids)
        self._sizes[tail : tail + k] = ledger.sizes_of(rids)
        self._tail = tail + k

    def push(self, rid: int, arrival: float, size: float) -> None:
        """Queue a single arrival (the scenario's admission walk).

        The caller hands over the already-gathered ledger columns so the
        per-request hot path performs three scalar stores and nothing else.
        """
        tail = self._tail
        if tail == self._rids.shape[0]:
            self._reserve(1)
            tail = self._tail
        self._rids[tail] = rid
        self._arrivals[tail] = arrival
        self._sizes[tail] = size
        self._tail = tail + 1

    def drain(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Advance the server to ``now``; returns the completions.

        Serves everything due between the last drain and ``now`` at the
        current (unchanged) rate: the request carried in service completes
        at ``last_progress + remaining / rate``, then the queue is folded
        (see the module docstring), by :meth:`_fold_block` when at least
        :data:`_SCALAR_BATCH_LIMIT` requests have arrived.  The first
        request whose completion lies past ``now`` takes the service
        position with its full size as remaining work.  At rate zero the
        head of the line enters service (frozen until the next
        re-allocation) and later arrivals queue.

        Returns ``(rids, times)`` in completion order; the caller owns the
        completion log (the runs of several servers must be merged by time
        first).
        """
        rate = self._rate
        ledger = self.ledger
        done_rids: list[int] = []
        done_times: list[float] = []
        free = -np.inf
        # Phase 1: the request carried in service from before this drain.
        if self.in_service is not None:
            if rate <= 0.0:
                return _EMPTY_RIDS, _EMPTY_TIMES
            completion = self._last_progress_time + self._remaining_work / rate
            if completion > now:
                return _EMPTY_RIDS, _EMPTY_TIMES
            rid = self.in_service
            ledger.complete_unlogged(rid, completion)
            self._last_progress_time = completion
            self.in_service = None
            self._remaining_work = 0.0
            done_rids.append(rid)
            done_times.append(completion)
            free = completion
        # Phase 2: fold the queue up to ``now``.
        head, tail = self._head, self._tail
        arrivals = self._arrivals
        if rate <= 0.0:
            # Zero rate: the head occupies the service position, frozen
            # (nothing was carried, so it starts at its arrival).
            if head < tail and arrivals.item(head) <= now:
                self._begin_service(head, arrivals.item(head))
                self._head = head + 1
            return _EMPTY_RIDS, _EMPTY_TIMES
        limit = head + _SCALAR_BATCH_LIMIT
        if limit <= tail and arrivals.item(limit - 1) <= now:
            rids, times = self._fold_block(now, head, free)
            if not done_rids:
                return rids, times
            return (
                np.concatenate((np.array(done_rids, dtype=np.int64), rids)),
                np.concatenate((np.array(done_times), times)),
            )
        # Fewer than ``_SCALAR_BATCH_LIMIT`` requests have arrived.
        sizes = self._sizes
        queued = self._rids
        pos = head
        while pos < tail:
            arrival = arrivals.item(pos)
            if arrival > now:
                break
            start = arrival if arrival > free else free
            completion = start + sizes.item(pos) / rate
            if completion > now:
                # Mid-service at ``now``: carry the work into the next drain.
                self._begin_service(pos, start)
                pos += 1
                break
            rid = queued.item(pos)
            ledger.start_service(rid, start)
            ledger.complete_unlogged(rid, completion)
            done_rids.append(rid)
            done_times.append(completion)
            free = completion
            pos += 1
        self._head = pos
        if not done_rids:
            return _EMPTY_RIDS, _EMPTY_TIMES
        if self.in_service is None:
            self._last_progress_time = free
        return np.array(done_rids, dtype=np.int64), np.array(done_times, dtype=np.float64)

    def _fold_block(self, now: float, head: int, free: float) -> tuple[np.ndarray, np.ndarray]:
        """Fold the queue from slot ``head`` on in bulk, after completion
        ``free``; updates the cursor and service state, returns the run.

        The fold runs in doubling chunks and stops after the first chunk
        that ends past ``now``, so a long queue behind a request still in
        service is not folded in full.
        """
        tail = self._tail
        arrivals = self._arrivals
        sizes = self._sizes
        rate = self._rate
        if arrivals.item(tail - 1) <= now:
            end = tail
        else:
            end = head + int(np.searchsorted(arrivals[head:tail], now, side="right"))
        f = free
        folded: list[float] = []
        lo, hi = head, head + 4 * _SCALAR_BATCH_LIMIT
        while True:
            if hi > end:
                hi = end
            folded += [
                f := (a if a > f else f) + d
                for a, d in zip(arrivals[lo:hi].tolist(), (sizes[lo:hi] / rate).tolist())
            ]
            if hi == end or f > now:
                break
            lo, hi = hi, 2 * hi - head
        k = bisect_right(folded, now)
        rids, times = _EMPTY_RIDS, _EMPTY_TIMES
        if k:
            times = np.array(folded[:k])
            previous = np.empty(k)
            previous[0] = free
            previous[1:] = times[:-1]
            starts = np.maximum(arrivals[head : head + k], previous)
            rids = self._rids[head : head + k].copy()
            self.ledger.serve_batch(rids, starts, times)
            free = folded[k - 1]
            self._last_progress_time = free
        self._head = head + k
        if head + k < end:
            # Mid-service at ``now``: carry the work into the next drain.
            arrival = arrivals.item(head + k)
            self._begin_service(head + k, arrival if arrival > free else free)
            self._head += 1
        return rids, times

    def _begin_service(self, pos: int, start: float) -> None:
        """Put the queued request in slot ``pos`` into service at ``start``."""
        self.serve((self._rids.item(pos), start, self._sizes.item(pos)))

    def service_head(self) -> tuple[float, int | None, float]:
        """The rate, the row in service (``None`` when free) and its
        completion at that rate (``inf`` when free or frozen at rate zero),
        with exactly the arithmetic :meth:`drain` performs."""
        rate = self._rate
        rid = self.in_service
        if rid is None or rate <= 0.0:
            return rate, rid, np.inf
        return rate, rid, self._last_progress_time + self._remaining_work / rate

    def serve(self, head: tuple[int, float, float] | None) -> None:
        """Hold ``head`` — ``(row id, start, size)`` — in the service position.

        A cluster's completion calendar keeps this class server's queue and
        books its completions; after each synchronisation it hands over the
        arrived head (``None`` when none has arrived), so that
        :meth:`set_rate` re-bases the right request.  A head already in
        service keeps its progress; a new one starts at ``start``.
        """
        if head is None:
            self.in_service = None
        elif head[0] != self.in_service:
            rid, start, size = head
            self.ledger.start_service(rid, start)
            self.in_service = rid
            self._remaining_work = size
            self._last_progress_time = start

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
        self._last_progress_time = now
        self._rate = float(rate)
