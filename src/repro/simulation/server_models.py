"""Pluggable server models: how allocated rates are realised on hardware.

A :class:`ServerModel` is the serving substrate of a
:class:`~repro.simulation.scenario.Scenario`.  The scenario owns everything
that is common to every PSD simulation — request sources, measurement,
estimation windows, the controller — and delegates to the server model the
one thing that differs between the paper's idealised analysis and a real
deployment: *how* requests are served once the controller has decided the
per-class processing rates.

The request lifecycle is columnar and batched: the scenario owns a
:class:`~repro.simulation.ledger.RequestLedger`, hands it to the model at
:meth:`ServerModel.bind`, and then submits time-ordered blocks of *integer
row ids* with the columns just appended for them
(:meth:`ServerModel.submit_batch`).  The model serves ids (writing lifecycle
timestamps into the ledger) and returns the completed ids and their times
whenever the scenario drains it to a point in time (:meth:`ServerModel.drain`).

Two implementations are provided:

* :class:`RateScalableServers` — the paper's Fig. 1 model: one rate-scalable
  FCFS task server per class, each running at exactly the allocated rate
  (the fluid idealisation behind Eq. 17).  It is a *bank*: one object holds
  the servers of every (node, class) pair in shared per-server columns, so
  the paper's single server is a one-node bank and a cluster
  (:class:`~repro.cluster.ClusterServerModel`) drives one bank of all its
  nodes.
* :class:`SharedProcessorServer` — a realistic variant: one full-speed
  processor and a proportional-share scheduler from
  :mod:`repro.scheduling` (WFQ, SFQ, lottery, DRR, priority, ...)
  whose weights track the allocated rates.

Adding a new model (an async backend, a cache in front of the processor)
means subclassing :class:`ServerModel` and implementing its five abstract
methods (``_on_bind``, ``submit_batch``, ``drain``, ``apply_rates`` and
``backlogs``); every scenario, experiment driver and replication runner then
works with it unchanged.  Live-state admission also needs ``walk`` (see
:meth:`RateScalableServers.walk`).

How the bank serves
-------------------
The bank owns every (node, class) server's state on both of its routes:
the FCFS queue, the row in service, the last completion, and the pending
counts and per-node work left that dispatch policies read.  Between two rate
changes an FCFS run is the Lindley recursion ``completion = max(arrival,
previous completion) + size / rate``, a deterministic left fold of the
arrivals, which both routes compute in the same operation order.

On the *block route* each server's queued rows live in three growable NumPy
columns (row id, arrival, size) consumed from a head cursor; appends write
slices at the tail, and the columns compact or double only when the tail
runs out of room, so appends are amortised O(1) and the queue is never
concatenated.  A drain folds each request's *completion* exactly once and
does everything else in bulk: the block is cut at ``now`` on the arrivals
(``searchsorted``), the service times come from array divisions (correctly
rounded, so bit-equal to the scalar division), the fold is a comprehension
over Python floats (in doubling chunks, so a long queue behind a request
still in service is not folded in full), the run is cut at ``now`` on the
completions (``bisect_right``), and the starts are derived afterwards as
``np.maximum(arrival, previous completion)`` — a max is exact, so no
timestamp moves.  One drain of the bank folds every busy server, writes all
their fresh rows in one checked ``serve_batch`` and merges the runs with
one stable argsort.  The scenario drains at window boundaries, fleet events
and the horizon only, never per arrival.

On the *completion calendar* (a cluster whose dispatch policy reads live
backlogs, and live-state admission on any bank) rows are placed one at a
time in arrival order, each decision reading the pending counts of its
instant.  Each server's rows wait in a deque, and a heap holds one
predicted completion per server, its head's, so before each placement the
calendar books every completion due by the arrival.  A drain books up to
``now``, writes the booked rows in one ``serve_batch`` and starts the
arrived heads, so that a rate change re-bases them as on the block route.
Either way :meth:`RateScalableServers.drain` returns the completed rows in
``(time, node, class)`` order.

The recursion itself stays a per-request fold on purpose.  The operation
order ``max(arrival, f) + size / rate`` must be kept per request: max-plus
or ``cumsum`` forms of the recursion round differently and would move
timestamps, and an exact vectorised form (busy periods from a max-plus
estimate, then length-bucketed ``np.add.accumulate``) is bit-identical but
was measured 1.6–25× slower than the comprehension on drains of 30–1000
requests.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Callable, Iterable, Sequence
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain

import numpy as np

from ..errors import SimulationError
from ..scheduling.base import Scheduler, WeightedScheduler
from ..types import TrafficClass
from ..validation import require_capacity, require_non_negative
from .engine import SimulationEngine
from .ledger import RequestLedger

__all__ = ["ServerModel", "RateScalableServers", "SharedProcessorServer"]

#: Shared zero-length drain results, allocated once (callers only read them).
_EMPTY_RIDS = np.empty(0, dtype=np.int64)
_EMPTY_TIMES = np.empty(0, dtype=np.float64)
_EMPTY_RUN = (_EMPTY_RIDS, _EMPTY_TIMES, _EMPTY_TIMES, _EMPTY_TIMES)

#: Requests in the drain fold's first chunk; later chunks double the span.
_FOLD_CHUNK = 128

#: Initial slots of a class server's queue columns; they double on demand.
_INITIAL_CAPACITY = 64

#: Weights pushed into a :class:`WeightedScheduler` are floored at this value
#: so that a class with zero allocated rate (no estimated traffic) keeps the
#: fair-queueing tag arithmetic well defined.
WEIGHT_FLOOR = 1e-9


class ServerModel(abc.ABC):
    """Protocol for the serving substrate of a scenario.

    Lifecycle: the scenario constructs the model, calls :meth:`bind` exactly
    once (handing over the engine, the traffic classes and the run's request
    ledger), then immediately pushes the controller's initial rate vector via
    :meth:`apply_rates`.  During the run the scenario calls
    :meth:`submit_batch` with time-ordered blocks of admitted ledger row ids
    (possibly ahead of the engine clock), :meth:`drain` to collect every
    completion up to a point in time, and :meth:`apply_rates` after every
    estimation window — always right after a drain to the engine clock.

    Capacity: every model advertises :attr:`capacity` — the maximum total
    processing rate the underlying hardware can sustain, in the same
    normalised units as the controller's rate allocation (the single unit
    server of the paper has capacity 1).  ``None`` means *unconstrained* (the
    idealised fluid model of the paper, which realises any allocation
    exactly).  Heterogeneous clusters read the member capacities to make
    capacity-aware dispatch and rate-partitioning decisions.
    """

    #: Maximum sustainable total processing rate (``None`` = unconstrained).
    capacity: float | None = None

    def __init__(self) -> None:
        self.engine: SimulationEngine | None = None
        self.classes: tuple[TrafficClass, ...] = ()
        self.ledger: RequestLedger | None = None
        #: Optional :class:`repro.telemetry.Telemetry` facade; ``None`` (the
        #: default) keeps every observation site a single comparison.
        self.telemetry = None
        #: Completion times of the rows the last :meth:`drain` returned
        #: (``None``: the model keeps none; read them from the ledger).
        self.drained_times: np.ndarray | None = None

    def attach_telemetry(self, telemetry) -> None:
        """Install the scenario's telemetry facade (call before :meth:`bind`).

        Models feed their drain/fleet observations through it; composite
        models (the cluster) propagate the facade to their members at bind
        time.
        """
        self.telemetry = telemetry

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def bind(
        self,
        engine: SimulationEngine,
        classes: Sequence[TrafficClass],
        *,
        ledger: RequestLedger | None = None,
    ) -> None:
        """Attach the model to a scenario's engine and ledger.

        ``ledger`` is the scenario's columnar request store; a model bound
        without one (standalone use) allocates a private ledger.
        """
        if self.engine is not None:
            raise SimulationError(
                "server model is already bound to a scenario; build a fresh "
                "model instance per scenario (they hold per-run state)"
            )
        if not classes:
            raise SimulationError("classes must be non-empty")
        self.engine = engine
        self.classes = tuple(classes)
        self.ledger = ledger if ledger is not None else RequestLedger(len(self.classes))
        self._on_bind()

    # ------------------------------------------------------------------ #
    # Model interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _on_bind(self) -> None:
        """Build per-run state (task servers, dispatch bookkeeping, ...)."""

    @abc.abstractmethod
    def submit_batch(self, rids, classes=None, arrivals=None, sizes=None) -> None:
        """Queue a time-ordered block of admitted ledger row ids, with their
        class, arrival and size columns when the caller holds them (else
        :meth:`_block_columns` gathers them).  The block may run ahead of
        the engine clock; the model serves each request from its arrival
        time on.
        """

    @abc.abstractmethod
    def drain(self, now: float) -> np.ndarray:
        """Advance the model to ``now``; returns the completed row ids in
        completion-time order, their times left in :attr:`drained_times`
        (the caller logs both: ``ledger.log_completions(rids, times)``)."""

    def _block_columns(self, rids, classes, arrivals, sizes):
        """A submitted block's class, arrival and size columns: as handed
        over, or gathered from the ledger."""
        if classes is None:
            ledger = self.ledger
            return ledger.classes_of(rids), ledger.arrivals_of(rids), ledger.sizes_of(rids)
        return classes, arrivals, sizes

    @abc.abstractmethod
    def apply_rates(self, rates: Sequence[float]) -> None:
        """The controller (re-)allocated the per-class processing rates."""

    @abc.abstractmethod
    def backlogs(self) -> tuple[int, ...]:
        """Per-class queued request counts (excluding any in service)."""

    def block_boundaries(self, start: float, end: float) -> tuple[float, ...]:
        """Instants strictly inside ``(start, end)`` where a pre-drawn
        arrival block must be cut so later arrivals are dispatched under
        updated model state (cluster fleet events).  Plain servers have
        none; a cluster returns its fleet event times, sorted ascending and
        deduplicated.
        """
        return ()


class RateScalableServers(ServerModel):
    """The paper's Fig. 1 model: a bank of rate-scalable FCFS class servers.

    Every class of every node owns one FCFS task server, ``s = node *
    num_classes + class``, running at the rate :meth:`apply_rates` last
    set; a rate change mid-service re-bases the in-service request's
    remaining work, exactly as the fluid analysis of Eq. 17 assumes.  The
    paper's single server is a one-node bank (``RateScalableServers()``);
    a cluster drives one bank of all its nodes (:meth:`of_nodes`).  All
    servers share the scenario's ledger, so queue entries are plain row
    ids.

    ``capacity`` bounds the total rate a node can actually deliver: when
    the rates assigned to a node sum past it, every class's effective rate
    is scaled down by ``capacity / sum(rates)`` — the node serves at its
    physical speed, proportionally shared, exactly as an over-subscribed
    processor would.  Rates within capacity are realised verbatim
    (bit-identical to an unconstrained node), so ``capacity=None`` (the
    default) reproduces the paper's idealised server and a homogeneous
    cluster of adequately sized nodes behaves identically with and without
    declared capacities.

    Per-server state, read-only outside the bank: :attr:`rates`,
    :attr:`in_service` (the row in service as of the last drain, ``None``
    when free), that row's :attr:`remaining` work as of :attr:`progress`
    (it completes at ``progress + remaining / rate``), and :attr:`free`,
    the server's last completion.  Per node: :attr:`pending` (``[node]
    [class]``, the unfinished rows, queued or in service) and
    :attr:`work_left` (their full-rate work), which a cluster's dispatch
    policies read live.  The block route books work left only for rows
    handed over with a node column, so a standalone bank's stays zero
    there: no policy reads it.
    """

    def __init__(self, *, capacity: float | None = None) -> None:
        super().__init__()
        #: Per-node capacity (``None``: unconstrained); a cluster's
        #: ``set_capacity`` fleet events write it in place.
        self.capacities: list[float | None] = [
            None if capacity is None else require_capacity(capacity)
        ]

    @classmethod
    def of_nodes(cls, capacities: Sequence[float | None]) -> RateScalableServers:
        """An unbound bank of one node per (already validated) capacity."""
        bank = cls()
        bank.capacities = list(capacities)
        return bank

    @property
    def capacity(self) -> float | None:
        """The bank's total capacity; ``None`` when a node is unconstrained."""
        return None if None in self.capacities else sum(self.capacities)

    def _on_bind(self) -> None:
        nodes, c = len(self.capacities), self.num_classes
        n = nodes * c
        self.rates = [0.0] * n
        self.in_service: list[int | None] = [None] * n
        self.remaining = [0.0] * n
        self.progress = [0.0] * n
        self.free = [-np.inf] * n
        self.pending = [[0] * c for _ in range(nodes)]
        self.work_left = [0.0] * nodes
        # Block route: server ``s`` queues slots [_head[s], _tail[s]) of its
        # columns; drains advance the head, appends the tail.
        self._rids = [np.empty(_INITIAL_CAPACITY, dtype=np.int64) for _ in range(n)]
        self._arrivals = [np.empty(_INITIAL_CAPACITY) for _ in range(n)]
        self._sizes = [np.empty(_INITIAL_CAPACITY) for _ in range(n)]
        self._head = [0] * n
        self._tail = [0] * n
        #: The completion calendar's heap, ``None`` on the block route.
        self._calendar: list[tuple[float, int, int, int, float, float]] | None = None

    def _start_calendar(self) -> None:
        """Move an empty bank onto the completion calendar: a heap of the
        ``(completion, node, class, rid, size, start)`` of each server's
        head (its earliest unbooked row) and, per server, the FCFS deque of
        its unbooked ``(rid, arrival, size)``, head first, plus the entries
        booked since the last drain."""
        if any(map(any, self.pending)):
            raise SimulationError("the completion calendar starts on an empty bank")
        self._calendar = []
        self._queues: list[deque[tuple[int, float, float]]] = [deque() for _ in self.rates]
        self._booked: list[tuple[float, int, int, int, float, float]] = []
        self._stale = False

    def _reserve(self, s: int, k: int) -> None:
        """Make room for ``k`` more slots at server ``s``'s tail.

        The live slots (the queue, led by the service slot while a row is
        in service) move to the front of the columns, which double until
        at least half of them is free afterwards — so the copy is paid at
        most once per half-capacity of appends.
        """
        busy = self.in_service[s] is not None
        head, tail = self._head[s] - busy, self._tail[s]
        live = tail - head
        capacity = self._rids[s].shape[0]
        new_capacity = capacity
        while 2 * (live + k) > new_capacity:
            new_capacity *= 2
        for columns in (self._rids, self._arrivals, self._sizes):
            old = columns[s]
            column = old if new_capacity == capacity else np.empty(new_capacity, dtype=old.dtype)
            column[:live] = old[head:tail]
            columns[s] = column
        self._head[s] = int(busy)
        self._tail[s] = live

    def submit_batch(self, rids, classes=None, arrivals=None, sizes=None, nodes=None) -> None:
        """Queue a time-ordered block of rows on their class servers.

        A cluster hands over each row's node too (else every row goes to
        node 0), and those rows add their sizes to the nodes' work left.
        One index per server picks its rows, still in arrival order, and
        three slice stores queue them.  A row of a class the bank does not
        serve falls in no server's rows, so one comparison of the counts
        rejects it.  (Picking by indices measured faster than boolean
        masks, and than one stable sort by server into slices on blocks of
        3000 rows.)  A bank on the completion calendar refuses blocks, as
        its drains read only the calendar.
        """
        if self._calendar is not None:
            raise SimulationError(
                "the bank serves on the completion calendar; a block submitted "
                "to its queue columns would never be drained"
            )
        rids = np.asarray(rids, dtype=np.int64)
        c = self.num_classes
        classes, arrivals, sizes = self._block_columns(rids, classes, arrivals, sizes)
        servers = classes if nodes is None else nodes * c + classes
        blocks = []
        for s in range(len(self.rates)):
            rows = np.flatnonzero(servers == s)
            if rows.size:
                blocks.append((s, rows))
        if sum(rows.size for _, rows in blocks) != rids.size:
            foreign = (classes < 0) | (classes >= c)
            raise SimulationError(
                f"request of class {int(classes[foreign.argmax()])} submitted to a "
                f"node serving {c} classes"
            )
        pending = self.pending
        for s, rows in blocks:
            k = rows.size
            pending[s // c][s % c] += k
            if self._tail[s] + k > self._rids[s].shape[0]:
                self._reserve(s, k)
            tail = self._tail[s]
            self._rids[s][tail : tail + k] = rids[rows]
            self._arrivals[s][tail : tail + k] = arrivals[rows]
            self._sizes[s][tail : tail + k] = sizes[rows]
            self._tail[s] = tail + k
        if nodes is not None:
            work_left = self.work_left
            for node, work in enumerate(
                np.bincount(nodes, weights=sizes, minlength=len(work_left)).tolist()
            ):
                work_left[node] += work

    def dispatch(
        self,
        rids: np.ndarray,
        classes: np.ndarray,
        arrivals: np.ndarray,
        sizes: np.ndarray,
        choose: Callable[[int, int], int],
    ) -> list[int]:
        """Place a time-ordered block on the completion calendar, each row
        on the node ``choose(rid, class_index)`` picks from the state of
        its arrival instant (:meth:`_place`); returns the nodes chosen."""
        rows = zip(arrivals.tolist(), rids.tolist(), classes.tolist(), sizes.tolist())
        return self._place(rows, choose)

    def walk(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        classes: np.ndarray,
        first: int,
        admit: Callable[[float, int, float, tuple[int, ...]], int],
        choose: Callable[[int, int], int] | None = None,
    ) -> list[int]:
        """Live-state admission over one arrival segment, on the calendar.

        ``admit(t, class_index, size, backlogs)`` decides each arrival in
        turn and returns the class that serves it, or -1 to shed it;
        ``backlogs`` is :meth:`backlogs` at ``t``, after booking every
        completion due by ``t``.  Each admitted row (arrival ``i`` is row
        ``first + i``) is placed on the node ``choose(rid, class_index)``
        picks (node 0 without ``choose``).  The walk writes nothing: the
        caller appends the rows once the segment is decided.  Returns the
        admitted rows' nodes.
        """
        rows = zip(
            times.tolist(), range(first, first + times.shape[0]), classes.tolist(), sizes.tolist()
        )
        return self._place(rows, choose or _first_node, admit)

    def _place(
        self,
        rows: Iterable[tuple[float, int, int, float]],
        choose: Callable[[int, int], int] | None,
        admit: Callable[[float, int, float, tuple[int, ...]], int] | None = None,
        until: float = -np.inf,
    ) -> list[int]:
        """The completion calendar: book and place in time order.

        ``rows`` are ``(arrival, rid, class, size)`` in time order.  Between
        two rate changes an FCFS server's completions are a fixed,
        non-decreasing fold of its arrivals, so the earliest completion is
        always some server's head.  Before each row the calendar books
        every completion due by its arrival (``<= t``: completions tied
        with an arrival land first), popping heads in ``(time, node,
        class)`` order; after the rows, every one due by ``until`` (how
        :meth:`drain` books, with no rows).  A booking promotes the next
        row of its server to head with the drain's fold — ``start =
        max(arrival, previous completion)``, ``completion = start + size /
        rate`` — and drops the server's pending count and its node's work
        left.  ``admit`` (:meth:`walk`) then re-classes or drops the row,
        ``choose`` picks its node, and a row placed on a server without a
        head becomes its head if the server runs (``start = max(arrival,
        last completion)``); any other waits, unpredicted, in the server's
        deque — behind a frozen (zero-rate) server until a rate change
        predicts its head.  Returns the nodes chosen, in row order.
        """
        if self._calendar is None:
            self._start_calendar()
        elif self._stale:
            self._predict()
        calendar = self._calendar
        queues = self._queues
        rates = self.rates
        free = self.free
        pending = self.pending
        work_left = self.work_left
        c = self.num_classes
        book = self._booked.append
        backlogs = self.backlogs
        choices: list[int] = []
        chose = choices.append
        # The closing row (rid -1) books up to ``until`` and ends the loop.
        for t, rid, cls, size in chain(rows, ((until, -1, 0, 0.0),)):
            while calendar and calendar[0][0] <= t:
                entry = calendar[0]
                done, node, k, _, served, _ = entry
                s = node * c + k
                queue = queues[s]
                queue.popleft()
                free[s] = done
                if queue:
                    head, a, z = queue[0]
                    start = a if a > done else done
                    heapreplace(calendar, (start + z / rates[s], node, k, head, z, start))
                else:
                    heappop(calendar)
                book(entry)
                pending[node][k] -= 1
                # Clamp (as ``max(work, 0.0)``): summation order can leave
                # ~1e-16 residuals behind.
                work = work_left[node] - served
                work_left[node] = 0.0 if work < 0.0 else work
            if rid < 0:
                break
            if admit is not None:
                cls = admit(t, cls, size, backlogs())
                if cls < 0:
                    continue
            node = choose(rid, cls)
            pending[node][cls] += 1
            work_left[node] += size
            chose(node)
            s = node * c + cls
            queue = queues[s]
            if not queue:
                rate = rates[s]
                if rate > 0.0:
                    last = free[s]
                    start = t if t > last else last
                    heappush(calendar, (start + size / rate, node, cls, rid, size, start))
            queue.append((rid, t, size))
        return choices

    def drain(self, now: float) -> np.ndarray:
        """Serve every class server to ``now``; returns the completed rows
        in ``(time, node, class)`` order, written to the ledger, and leaves
        their times in :attr:`drained_times`.

        On the block route each busy server folds its queue
        (:meth:`_drain_server`); the fresh rows of every fold reach the
        ledger in one checked
        :meth:`~repro.simulation.ledger.RequestLedger.serve_batch`, and the
        runs, concatenated in server order, are merged by one stable
        argsort on their times, so tied completions come in ``(node,
        class)`` order (the order of one engine event per completion
        scheduled class by class).  Each server's pending count then drops
        by its run length, and a cluster's bank (whose ledger has a node
        column) folds each node's work left over its rows in merged order.
        On the calendar route the calendar books up to ``now``
        (:meth:`_drain_calendar`).
        """
        if self._calendar is not None:
            return self._drain_calendar(now)
        telemetry = self.telemetry
        c = self.num_classes
        head, tail = self._head, self._tail
        pending = self.pending
        runs = []
        servers: list[int] = []
        for s, busy in enumerate(self.in_service):
            if busy is None and head[s] == tail[s]:
                # Idle with nothing queued: no completions to emit and no
                # zero-rate freeze to materialise.
                continue
            run = self._drain_server(s, now)
            k = run[0].size
            if k:
                node, cls = divmod(s, c)
                if telemetry is not None:
                    telemetry.on_server_drain(cls, k)
                pending[node][cls] -= k
                servers.append(s)
                runs.append(run)
        if not runs:
            self.drained_times = _EMPTY_TIMES
            return _EMPTY_RIDS
        ledger = self.ledger
        fresh = [
            (rids[-starts.size :], starts, times[-starts.size :])
            for rids, starts, times, _ in runs
            if starts.size
        ]
        if len(fresh) > 1:
            ledger.serve_batch(*map(np.concatenate, zip(*fresh)))
        elif fresh:
            ledger.serve_batch(*fresh[0])
        if len(runs) == 1:
            # One contributing server: its run is already in time order.
            run, _, times, sizes = runs[0]
        else:
            rids = np.concatenate([run[0] for run in runs])
            times = np.concatenate([run[2] for run in runs])
            order = np.argsort(times, kind="stable")
            run, times = rids[order], times[order]
        self.drained_times = times
        if ledger.node is None:
            # A standalone bank: no dispatch policy reads its work left.
            return run
        # Each row's size comes from its run, and its node from its
        # server (``node = s // C``), merged in the same order.
        nodes = list(dict.fromkeys(s // c for s in servers))
        of_node = None
        if len(runs) > 1:
            sizes = np.concatenate([run[3] for run in runs])[order]
            if len(nodes) > 1:
                of_node = (np.repeat(servers, [run[0].size for run in runs]) // c)[order]
        work_left = self.work_left
        for node in nodes:
            mine = sizes if of_node is None else sizes[of_node == node]
            # The scalar fold ``work = max(work - size, 0.0)`` over the
            # node's rows in completion order, bit for bit: ``subtract.
            # reduce`` subtracts left to right, and as sizes are
            # non-negative the unclamped fold never rises — once it dips
            # below zero (summation order can leave ~1e-16 residuals) it
            # stays there, where the clamped fold ends at 0.0.
            work = float(np.subtract.reduce(mine, initial=work_left[node]))
            work_left[node] = 0.0 if work < 0.0 else work
        return run

    def _drain_calendar(self, now: float) -> np.ndarray:
        """The calendar route's drain: book every completion up to ``now``,
        write the rows booked since the last drain (rows started by an
        earlier drain only complete), and start each server's arrived head
        at ``max(arrival, last completion)``, so that :meth:`apply_rates`
        re-bases it (a head already in service keeps its progress; a
        frozen head, which has no calendar entry, starts at its arrival)."""
        self._place((), None, until=now)
        booked = self._booked
        # Bookings pop in time order, so the last one is the latest.
        if booked and booked[-1][0] > now:
            raise SimulationError(
                f"node {booked[-1][1]}: a completion is booked at t={booked[-1][0]:g}, "
                f"after the drain to t={now:g}; the drain is behind completions "
                f"that dispatch already booked"
            )
        in_service, free = self.in_service, self.free
        for s, queue in enumerate(self._queues):
            if queue and queue[0][1] <= now:
                rid, arrival, size = queue[0]
                if rid != in_service[s]:
                    self._start(s, rid, arrival if arrival > free[s] else free[s], size)
            else:
                in_service[s] = None
        if not booked:
            self.drained_times = _EMPTY_TIMES
            return _EMPTY_RIDS
        self._booked = []
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            # One drain-length observation per server with bookings.
            c = self.num_classes
            counts = Counter(entry[1] * c + entry[2] for entry in booked)
            for s in sorted(counts):
                telemetry.on_server_drain(s % c, counts[s])
        ledger = self.ledger
        done, _, _, order, _, starts = zip(*booked)
        rids = np.array(order, dtype=np.int64)
        done = np.array(done)
        started = ~np.isnan(ledger.service_start_time[rids])
        fresh = ~started
        ledger.serve_batch(rids[fresh], np.array(starts)[fresh], done[fresh])
        ledger.complete_batch(rids[started], done[started])
        self.drained_times = done
        return rids

    def _drain_server(
        self, s: int, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance server ``s`` to ``now``; returns its run ``(rids, starts,
        times, sizes)``.

        The request carried in service completes at ``progress + remaining
        / rate``, then the queue is folded (see the module docstring) in
        doubling chunks, stopping after the first chunk that ends past
        ``now``, so a long queue behind a request still in service is not
        folded in full.  The first request whose completion lies past
        ``now`` takes the service position with its full size as remaining
        work.  At rate zero the head of the line enters service (frozen
        until the next re-allocation) and later arrivals queue.

        ``rids``, ``times`` and ``sizes`` (a view of the queue columns from
        the service slot, the one before the head) are the completed rows in
        completion order.  The last ``len(starts)`` of them — the fresh rows
        the fold started and completed — are *not* written to the ledger
        (the caller writes them); the request carried in service, which
        leads the run, is (``complete(..., log=False)``).
        """
        rate = self.rates[s]
        ledger = self.ledger
        carried = self.in_service[s]
        free = -np.inf
        # Phase 1: the request carried in service from before this drain.
        if carried is not None:
            if rate <= 0.0:
                return _EMPTY_RUN
            free = self.progress[s] + self.remaining[s] / rate
            if free > now:
                return _EMPTY_RUN
            ledger.complete(carried, free, log=False)
            self.free[s] = free
            self.in_service[s] = None
            self.remaining[s] = 0.0
        # Phase 2: fold the queue up to ``now``.
        head, tail = self._head[s], self._tail[s]
        arrivals = self._arrivals[s]
        sizes = self._sizes[s]
        if head == tail or arrivals.item(head) > now:
            # Nothing (more) has arrived.
            if carried is None:
                return _EMPTY_RUN
            return np.array([carried]), _EMPTY_TIMES, np.array([free]), sizes[head - 1 : head]
        if rate <= 0.0:
            # Zero rate: the head occupies the service position, frozen
            # (nothing was carried, so it starts at its arrival).
            self._start(s, self._rids[s].item(head), arrivals.item(head), sizes.item(head))
            self._head[s] = head + 1
            return _EMPTY_RUN
        if arrivals.item(tail - 1) <= now:
            end = tail
        else:
            end = head + int(np.searchsorted(arrivals[head:tail], now, side="right"))
        # The fold starts from ``free``, so ``folded[i]`` is the completion
        # before slot ``head + i``: the starts are ``max(arrival,
        # folded[:-1])`` and the carried row leads the run without a
        # concatenation.
        f = free
        folded: list[float] = [free]
        lo, hi = head, head + _FOLD_CHUNK
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
        k = bisect_right(folded, now, 1) - 1
        free = folded[k]
        if k:
            self.free[s] = free
        pos = head + k
        self._head[s] = pos
        if pos < end:
            # Mid-service at ``now``: carry the work into the next drain.
            arrival = arrivals.item(pos)
            start = arrival if arrival > free else free
            self._start(s, self._rids[s].item(pos), start, sizes.item(pos))
            self._head[s] = pos + 1
        lead = carried is not None
        if not (k or lead):
            return _EMPTY_RUN
        times = np.fromiter(folded, np.float64, k + 1)
        starts = np.maximum(arrivals[head:pos], times[:-1])
        rids = np.empty(k + lead, dtype=np.int64)
        rids[lead:] = self._rids[s][head:pos]
        if lead:
            rids[0] = carried
            return rids, starts, times, sizes[head - 1 : pos]
        return rids, starts, times[1:], sizes[head:pos]

    def _start(self, s: int, rid: int, start: float, size: float) -> None:
        """Put row ``rid`` into server ``s``'s service position at ``start``."""
        self.ledger.start_service(rid, start)
        self.in_service[s] = rid
        self.remaining[s] = size
        self.progress[s] = start

    def apply_rates(self, rates: Sequence[float], node: int = 0) -> None:
        """Set the rates of ``node``'s class servers at the engine clock.

        Each in-service request is first re-based: its remaining work drops
        by the progress made at the old rate, and the next drain completes
        it at the new rate.  The caller drains the bank to the engine clock
        first, so that progress is accounted.  On the calendar route the
        heads are re-predicted before the calendar is next used
        (:meth:`_predict`).
        """
        c = self.num_classes
        if len(rates) != c:
            raise SimulationError(f"expected {c} rates, got {len(rates)}")
        capacity = self.capacities[node]
        if capacity is not None:
            total = sum(rates)
            if total > capacity:
                # Over-subscribed: the node serves at its physical speed,
                # shared in proportion to the assigned rates.  Rates within
                # capacity take the untouched fast path below, so adequately
                # provisioned nodes stay bit-identical to unconstrained ones.
                scale = capacity / total
                rates = [rate * scale for rate in rates]
        now = self.engine.now
        for s, rate in enumerate(rates, node * c):
            rate = require_non_negative(rate, "rate")
            old = self.rates[s]
            if self.in_service[s] is not None and old > 0.0:
                elapsed = now - self.progress[s]
                self.remaining[s] = max(self.remaining[s] - elapsed * old, 0.0)
            self.progress[s] = now
            self.rates[s] = rate
        if self._calendar is None:
            return
        # A prediction holds only while the rates stay put; a rate change
        # follows a drain to the clock, so the rows in service are exactly
        # the arrived heads.  The calendar is re-predicted once, before it
        # is next used, however many nodes change rates in between.
        for s in range(node * c, node * c + c):
            queue, busy = self._queues[s], self.in_service[s]
            head = queue[0][0] if queue else None
            if busy is not None and busy != head:
                raise SimulationError(
                    f"node {node} serves row {busy} of class {s - node * c}, but the "
                    f"calendar's head is row {head}"
                )
        self._stale = True

    def _predict(self) -> None:
        """Re-predict every server's head at the current rates.

        A head in service completes at ``progress + remaining / rate``
        (re-based by the rate change), a head that has not started yet at
        ``arrival + size / rate``; a frozen server's head gets no entry.
        The rows queued behind the heads stay unpredicted, so this costs one
        look per class server.
        """
        c = self.num_classes
        calendar = []
        for s, queue in enumerate(self._queues):
            rate = self.rates[s]
            if not queue or rate <= 0.0:
                continue
            rid, arrival, size = queue[0]
            if self.in_service[s] is None:
                start = arrival
                done = arrival + size / rate
            else:
                start = self.ledger.start_of(rid)
                done = self.progress[s] + self.remaining[s] / rate
            calendar.append((done, *divmod(s, c), rid, size, start))
        heapify(calendar)
        self._calendar = calendar
        self._stale = False

    def backlogs(self) -> tuple[int, ...]:
        """Per class, the rows queued behind the one each busy server
        serves, over every node.

        On the block route a row enters service only at a drain: each
        server's pending count less its row in service (the length of its
        queue columns).  The calendar books completions between drains, so
        each server with pending rows counts as serving one of them: its
        pending count but one (exact whenever every pending row has
        arrived, as at each arrival instant of :meth:`walk`).
        """
        pending = self.pending
        if self._calendar is not None:
            waiting = [0] * len(pending[0])
            for row in pending:
                for k, p in enumerate(row):
                    if p > 1:
                        waiting[k] += p - 1
            return tuple(waiting)
        c = self.num_classes
        busy = self.in_service
        return tuple(
            sum(row[k] - (busy[node * c + k] is not None) for node, row in enumerate(pending))
            for k in range(c)
        )


def _first_node(rid: int, class_index: int) -> int:
    """A one-node bank's chooser."""
    return 0


class SharedProcessorServer(ServerModel):
    """A single full-speed processor driven by a pluggable scheduler.

    A real multi-process server has one processor (of ``capacity``) that
    serves one request at a time; the allocated rates are realised by a
    proportional-share scheduler deciding, whenever the processor becomes
    free, which class's head-of-line request runs next.  Service is
    non-preemptive and always happens at full speed, mirroring
    packet-by-packet fair queueing.  Any :class:`repro.scheduling.Scheduler`
    plugs in; for :class:`~repro.scheduling.base.WeightedScheduler` policies
    the weights are updated to the allocated rates after every estimation
    window (floored at ``WEIGHT_FLOOR``).  Scheduler job payloads are ledger
    row ids.

    ``capacity`` here is the processor's physical speed — the same "maximum
    sustainable total rate" every :class:`ServerModel` advertises, just
    always binding because a real processor cannot scale with the allocation.
    """

    def __init__(self, scheduler: Scheduler, *, capacity: float = 1.0) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.capacity = require_capacity(capacity)
        self._in_service: int | None = None
        self._completion_time = 0.0
        # Arrivals not yet handed to the scheduler, consumed from
        # ``_pending_pos`` as the drain's virtual clock advances: plain
        # Python lists, as the drain replay reads them scalar by scalar.
        self._pending_rids: list[int] = []
        self._pending_times: list[float] = []
        self._pending_classes: list[int] = []
        self._pending_sizes: list[float] = []
        self._pending_pos = 0

    def _on_bind(self) -> None:
        if self.scheduler.num_classes != self.num_classes:
            raise SimulationError("scheduler and classes disagree on the number of classes")
        self._in_service = None

    @property
    def in_service(self) -> int | None:
        """The ledger row id currently occupying the processor, if any."""
        return self._in_service

    def submit_batch(self, rids, classes=None, arrivals=None, sizes=None) -> None:
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return
        classes, arrivals, sizes = self._block_columns(rids, classes, arrivals, sizes)
        pos = self._pending_pos
        if pos:
            del self._pending_rids[:pos]
            del self._pending_times[:pos]
            del self._pending_classes[:pos]
            del self._pending_sizes[:pos]
            self._pending_pos = 0
        self._pending_rids.extend(rids.tolist())
        self._pending_times.extend(arrivals.tolist())
        self._pending_classes.extend(classes.tolist())
        self._pending_sizes.extend(sizes.tolist())

    def drain(self, now: float) -> np.ndarray:
        """Replay the processor's event loop to ``now`` in virtual time.

        The scheduler sees exactly the call sequence of a live processor —
        arrivals enqueued at their timestamps, one ``select`` whenever the
        processor frees up — but without engine dispatch: the drain walks the
        pending block and the in-service completion with a plain loop.  Arrivals
        tied with a completion enqueue *after* the ``select`` (the
        completion-first convention; exact ties have probability zero for
        continuous workloads).
        """
        ledger = self.ledger
        scheduler = self.scheduler
        rids = self._pending_rids
        times = self._pending_times
        classes = self._pending_classes
        sizes = self._pending_sizes
        n = len(rids)
        pos = self._pending_pos
        done: list[int] = []
        done_at: list[float] = []
        inf = float("inf")
        while True:
            completion = self._completion_time if self._in_service is not None else inf
            arrival = times[pos] if pos < n else inf
            if completion <= arrival:
                if completion > now:
                    break
                rid = self._in_service
                ledger.complete(rid, completion, log=False)
                self._in_service = None
                done.append(rid)
                done_at.append(completion)
                self._start_selected(completion)
            else:
                if arrival > now:
                    break
                # Enqueue at the arrival instant even while the processor is
                # busy: fair-queueing tags depend on the virtual time and
                # weights in force *when the job arrives*.
                idle = self._in_service is None
                scheduler.enqueue(classes[pos], sizes[pos], arrival, payload=rids[pos])
                pos += 1
                if idle:
                    self._start_selected(arrival)
        self._pending_pos = pos
        self.drained_times = np.array(done_at, dtype=np.float64)
        if not done:
            return _EMPTY_RIDS
        if self.telemetry is not None:
            self.telemetry.on_server_drain(None, len(done))
        return np.asarray(done, dtype=np.int64)

    def _start_selected(self, time: float) -> bool:
        """Ask the scheduler for the next job at ``time``; start it if any."""
        job = self.scheduler.select(time)
        if job is None:
            return False
        rid = job.payload
        if not isinstance(rid, int):
            raise SimulationError("scheduler returned a job without its row-id payload")
        self.ledger.start_service(rid, time)
        self._in_service = rid
        self._completion_time = time + self.ledger.size_of(rid) / self.capacity
        return True

    def apply_rates(self, rates: Sequence[float]) -> None:
        if isinstance(self.scheduler, WeightedScheduler):
            self.scheduler.set_weights([max(r, WEIGHT_FLOOR) for r in rates])

    def backlogs(self) -> tuple[int, ...]:
        return tuple(self.scheduler.backlog(i) for i in range(self.num_classes))
