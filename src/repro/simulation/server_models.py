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
row ids* (:meth:`ServerModel.submit_batch`).  The model serves ids (reading
sizes/classes from the ledger, writing lifecycle timestamps into it) and
returns the completed ids in bulk whenever the scenario drains it to a
point in simulated time (:meth:`ServerModel.drain`).

Two implementations are provided:

* :class:`RateScalableServers` — the paper's Fig. 1 model: one rate-scalable
  FCFS task server per class, each running at exactly the allocated rate
  (the fluid idealisation behind Eq. 17).
* :class:`SharedProcessorServer` — a realistic variant: one full-speed
  processor and a proportional-share scheduler from
  :mod:`repro.scheduling` (WFQ, SFQ, lottery, DRR, priority, ...)
  whose weights track the allocated rates.

Adding a new model (an async backend, a cache in front of the processor)
means subclassing :class:`ServerModel` and implementing its five abstract
methods (``_on_bind``, ``submit_batch``, ``drain``, ``apply_rates`` and
``backlogs``); every scenario, experiment driver and replication runner then
works with it unchanged.  A cluster
(:class:`~repro.cluster.ClusterServerModel`) is itself a model whose member
nodes are :class:`RateScalableServers`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from ..errors import SimulationError
from ..scheduling.base import Scheduler, WeightedScheduler
from ..types import TrafficClass
from ..validation import require_capacity
from .engine import SimulationEngine
from .ledger import RequestLedger
from .task_server import FcfsTaskServer

__all__ = ["ServerModel", "RateScalableServers", "SharedProcessorServer"]

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
    def submit_batch(self, rids: np.ndarray) -> None:
        """Queue a time-ordered block of admitted ledger row ids.

        The block may run ahead of the engine clock; the model serves each
        request from its ledger arrival time on.
        """

    @abc.abstractmethod
    def drain(self, now: float) -> np.ndarray:
        """Advance the model to ``now``; returns the completed row ids in
        global completion-time order (the caller logs them via
        ``ledger.log_completions``)."""

    @abc.abstractmethod
    def apply_rates(self, rates: Sequence[float]) -> None:
        """The controller (re-)allocated the per-class processing rates."""

    @abc.abstractmethod
    def backlogs(self) -> tuple[int, ...]:
        """Per-class queued request counts (excluding any in service)."""

    def submit_one(self, rid: int, class_index: int, arrival: float, size: float) -> None:
        """Queue a single pre-gathered arrival.

        The scenario's live-state admission walk submits one admitted
        arrival at a time and hands over the already-gathered ledger
        columns, so the built-in models implement this as a plain buffer
        append — no per-request ledger lookups.  The default submits a
        one-row block.
        """
        self.submit_batch(np.asarray([rid], dtype=np.int64))

    def block_boundaries(self, start: float, end: float) -> tuple[float, ...]:
        """Instants strictly inside ``(start, end)`` where a pre-drawn
        arrival block must be cut so later arrivals are dispatched under
        updated model state (cluster fleet events).  Plain servers have
        none; a cluster returns its fleet event times, sorted ascending and
        deduplicated.
        """
        return ()


class RateScalableServers(ServerModel):
    """The paper's idealised model: one rate-scalable task server per class.

    Each class owns a :class:`~repro.simulation.task_server.FcfsTaskServer`
    whose processing rate is set to the class's allocated rate; a rate change
    mid-service rescales the in-service request's remaining work, exactly as
    the fluid analysis of Eq. 17 assumes.  All task servers share the
    scenario's ledger, so queue entries are plain row ids.

    ``capacity`` bounds the total rate the node can actually deliver: when
    the assigned rates sum past it, every class's effective rate is scaled
    down by ``capacity / sum(rates)`` — the node serves at its physical
    speed, proportionally shared, exactly as an over-subscribed processor
    would.  Rates within capacity are realised verbatim (bit-identical to an
    unconstrained node), so ``capacity=None`` (the default) reproduces the
    paper's idealised server and a homogeneous cluster of adequately sized
    nodes behaves identically with and without declared capacities.
    """

    def __init__(self, *, capacity: float | None = None) -> None:
        super().__init__()
        self.capacity = None if capacity is None else require_capacity(capacity)
        self.servers: list[FcfsTaskServer] = []

    def _on_bind(self) -> None:
        self.servers = [
            FcfsTaskServer(self.engine, 0.0, ledger=self.ledger) for _ in range(self.num_classes)
        ]

    def submit_batch(self, rids: np.ndarray) -> None:
        """Queue a time-ordered block of rows on their class servers.

        The block's classes are gathered once; one mask per class picks
        that class's rows, still in arrival order, and their arrivals and
        sizes are gathered once for its class server.  A row of a class the
        node does not serve falls in no class's rows, so one comparison of
        the counts rejects it.  (Picking by masks measured faster than one
        stable sort by class into slices on blocks of 150-300 rows.)
        """
        rids = np.asarray(rids, dtype=np.int64)
        ledger = self.ledger
        classes = ledger.classes_of(rids)
        blocks = [rids[classes == index] for index in range(len(self.servers))]
        if sum(block.size for block in blocks) != rids.size:
            foreign = (classes < 0) | (classes >= len(self.servers))
            raise SimulationError(
                f"request of class {int(classes[foreign.argmax()])} submitted to a "
                f"node serving {len(self.servers)} classes"
            )
        for server, block in zip(self.servers, blocks):
            if block.size:
                server.submit_batch(block, ledger.arrivals_of(block), ledger.sizes_of(block))

    def submit_one(self, rid: int, class_index: int, arrival: float, size: float) -> None:
        self.servers[class_index].push(rid, arrival, size)

    def service_head(self, class_index: int) -> tuple[float, int | None, float]:
        """Class ``class_index``'s FCFS service rate, the row it serves
        (``None`` when free) and that row's predicted completion.

        Each class is served FCFS at a fixed rate between two
        :meth:`apply_rates` calls, so every completion is known the moment a
        request is queued.  A cluster's calendar keeps the class servers'
        queues itself: it starts each server from this query after every
        rate change, predicts the requests queued behind (``start =
        max(arrival, last)``, ``completion = start + size / rate``), writes
        the ledger rows, and hands the node its heads (see :meth:`drain`).
        """
        return self.servers[class_index].service_head()

    def drain(
        self, now: float, heads: Sequence[tuple[int, float, float] | None] | None = None
    ) -> np.ndarray:
        """Drain every class's task server, write the ledger once and merge
        the runs by time.

        Each class server hands back its run with the fresh rows of a bulk
        fold unwritten (:meth:`FcfsTaskServer.drain`); the node writes them
        for every class in one checked
        :meth:`~repro.simulation.ledger.RequestLedger.serve_batch`.  The
        row a class server carried in service, and the rows of a short
        scalar drain, wrote themselves and join the merge as they are.

        The merge is a stable argsort, so completions with equal timestamps
        keep class order — the order one engine event per completion gives
        when the tied completion events were scheduled in class order (true
        for every workload whose classes are started in class order, e.g. the
        deterministic trace scenarios; for continuous workloads exact ties
        have probability zero).

        ``heads`` (from a cluster calendar, see :meth:`service_head`) holds,
        per class, the ``(row id, start, size)`` of the calendar's unbooked
        head if it has arrived by ``now``, else ``None``.  The node then
        folds nothing and returns no rows: each class server just holds its
        head in service (:meth:`FcfsTaskServer.serve`), so that
        :meth:`apply_rates` re-bases it.
        """
        if heads is not None:
            for server, head in zip(self.servers, heads):
                server.serve(head)
            return np.empty(0, dtype=np.int64)
        telemetry = self.telemetry
        runs = []
        for index, server in enumerate(self.servers):
            if server.idle:
                # Idle with nothing queued: no completions to emit and no
                # zero-rate freeze to materialise, so skip the call entirely
                # (the admission walk drains before every arrival, and most
                # class servers are in exactly this state).
                continue
            run = server.drain(now)
            if run[0].size:
                if telemetry is not None:
                    telemetry.on_server_drain(index, int(run[0].size))
                runs.append(run)
        if not runs:
            return np.empty(0, dtype=np.int64)
        # The fresh rows of every class, written in one checked call.
        fresh = [
            (rids[-starts.size :], starts, times[-starts.size :])
            for rids, starts, times in runs
            if starts.size
        ]
        if len(fresh) > 1:
            self.ledger.serve_batch(*map(np.concatenate, zip(*fresh)))
        elif fresh:
            self.ledger.serve_batch(*fresh[0])
        if len(runs) == 1:
            # One contributing class: its run is already in time order (the
            # admission walk's tiny drains land here almost every time).
            return runs[0][0]
        rids = np.concatenate([run[0] for run in runs])
        times = np.concatenate([run[2] for run in runs])
        return rids[np.argsort(times, kind="stable")]

    def apply_rates(self, rates: Sequence[float]) -> None:
        if len(rates) != len(self.servers):
            raise SimulationError(f"expected {len(self.servers)} rates, got {len(rates)}")
        if self.capacity is not None:
            total = sum(rates)
            if total > self.capacity:
                # Over-subscribed: the node serves at its physical speed,
                # shared in proportion to the assigned rates.  Rates within
                # capacity take the untouched fast path below, so adequately
                # provisioned nodes stay bit-identical to unconstrained ones.
                scale = self.capacity / total
                rates = [rate * scale for rate in rates]
        for server, rate in zip(self.servers, rates):
            server.set_rate(rate)

    def backlogs(self) -> tuple[int, ...]:
        return tuple(server.backlog for server in self.servers)


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
        # ``_pending_pos`` as the drain's virtual clock advances.
        # Plain Python lists so the admission walk's one-at-a-time pushes
        # are O(1) appends (the drain replay reads scalars regardless).
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

    def submit_batch(self, rids: np.ndarray) -> None:
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return
        pos = self._pending_pos
        if pos:
            del self._pending_rids[:pos]
            del self._pending_times[:pos]
            del self._pending_classes[:pos]
            del self._pending_sizes[:pos]
            self._pending_pos = 0
        self._pending_rids.extend(rids.tolist())
        self._pending_times.extend(self.ledger.arrivals_of(rids).tolist())
        self._pending_classes.extend(self.ledger.classes_of(rids).tolist())
        self._pending_sizes.extend(self.ledger.sizes_of(rids).tolist())

    def submit_one(self, rid: int, class_index: int, arrival: float, size: float) -> None:
        self._pending_rids.append(rid)
        self._pending_times.append(arrival)
        self._pending_classes.append(class_index)
        self._pending_sizes.append(size)

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
        inf = float("inf")
        while True:
            completion = self._completion_time if self._in_service is not None else inf
            arrival = times[pos] if pos < n else inf
            if completion <= arrival:
                if completion > now:
                    break
                rid = self._in_service
                ledger.complete_unlogged(rid, completion)
                self._in_service = None
                done.append(rid)
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
        if not done:
            return np.empty(0, dtype=np.int64)
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
