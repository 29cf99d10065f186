"""Per-event reference simulator: the oracle the batched pipeline is diffed against.

:class:`repro.simulation.Scenario` pre-draws one arrival block per
estimation window, serves blocks ahead of the engine clock and drains
completions in bulk.  This module simulates the paper's Fig. 1 model the
direct way instead, with one engine event per arrival and one per
completion:

* each arrival event draws its own size and next gap with the sources'
  scalar ``next_size`` / ``next_interarrival``;
* each request in service owns a completion event; a rate change first
  charges the progress made at the old rate, then reschedules the event;
* admission calls ``decide`` and a cluster calls ``select_node`` once per
  arrival, against the live backlog and pending state of that instant.

Everything off the hot path is the library's own: the ledger, controllers,
admission, dispatch policies, rate partitioners, the cluster's fleet state
machine and the autoscalers, plus the scenario's window-boundary sequence.
The estimation-window statistics are the reference's own: it re-reads them
from the ledger past two cursors, where ``Scenario`` tallies them from its
appends and drains, so every reference diff checks those tallies too.

Use :class:`ReferenceScenario` exactly like ``Scenario`` — it accepts the
same arguments, including a fresh production server model, which it
translates into its per-event twin — or wrap an experiment build with
:func:`reference_build` to run it through a ``ReplicationRunner``.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial

import numpy as np

from repro.cluster import ClusterServerModel
from repro.cluster.fleet import NODE_DRAINING
from repro.core import AdmissionDecision
from repro.errors import ClusterDrainedError, SimulationError
from repro.scheduling.base import WeightedScheduler
from repro.simulation import RateScalableServers, Scenario, SharedProcessorServer
from repro.simulation.ledger import DISPOSITION_DEGRADED, DISPOSITION_SHED
from repro.simulation.server_models import WEIGHT_FLOOR, ServerModel

__all__ = ["ReferenceScenario", "per_event_model", "reference_build", "window_stats"]


class _PerEvent(ServerModel):
    """Per-event models serve requests handed over one at a time."""

    #: Called with each completed row id; a reference cluster installs its
    #: bookkeeping sink on every member.
    on_done = staticmethod(lambda rid: None)

    def submit(self, rid: int) -> None:
        raise NotImplementedError

    def submit_batch(self, rids: np.ndarray, *columns) -> None:
        for rid in np.asarray(rids).tolist():
            self.submit(rid)

    def drain(self, now: float) -> np.ndarray:
        # Completions log themselves as their events fire.
        return np.empty(0, dtype=np.int64)


class _TaskServer:
    """One class's FCFS queue and service position at a mutable rate."""

    def __init__(self, engine, ledger, done) -> None:
        self.engine = engine
        self.ledger = ledger
        self.done = done
        self.rate = 0.0
        self.queue: deque[int] = deque()
        self.in_service: int | None = None
        self.remaining = 0.0
        self.since = 0.0
        self.event = None

    def submit(self, rid: int) -> None:
        self.queue.append(rid)
        if self.in_service is None:
            self._start_next()

    def set_rate(self, rate: float) -> None:
        self._charge_progress()
        self.rate = float(rate)
        self._reschedule()

    def _charge_progress(self) -> None:
        now = self.engine.now
        if self.in_service is not None and self.rate > 0.0:
            self.remaining = max(self.remaining - (now - self.since) * self.rate, 0.0)
        self.since = now

    def _start_next(self) -> None:
        if not self.queue:
            return
        rid = self.queue.popleft()
        now = self.engine.now
        self.ledger.start_service(rid, now)
        self.in_service, self.remaining, self.since = rid, self.ledger.size_of(rid), now
        self._reschedule()

    def _reschedule(self) -> None:
        if self.event is not None:
            self.event.cancel()
            self.event = None
        if self.in_service is not None and self.rate > 0.0:
            self.event = self.engine.schedule_after(
                self.remaining / self.rate, self._complete, label="completion"
            )

    def _complete(self) -> None:
        self._charge_progress()
        if self.remaining > 1e-9:
            self._reschedule()
            return
        rid = self.in_service
        self.ledger.complete(rid, self.engine.now)
        self.in_service, self.event, self.remaining = None, None, 0.0
        self.done(rid)
        self._start_next()


class _RateScalable(_PerEvent, RateScalableServers):
    """Fig. 1: one FCFS task server per (node, class) at its allocated rate.

    A :class:`RateScalableServers`, so it keeps the bank's capacity column
    and :meth:`~RateScalableServers.of_nodes` builds a reference cluster's
    bank; ``_PerEvent`` comes first in the MRO, so its per-event
    ``submit_batch`` and ``drain`` override the batched ones.
    """

    def _on_bind(self) -> None:
        nodes, c = len(self.capacities), self.num_classes
        self.servers = [_TaskServer(self.engine, self.ledger, self._done) for _ in range(nodes * c)]
        # A reference cluster restates these per event (its policies read
        # them through the cluster's views).
        self.pending = [[0] * c for _ in range(nodes)]
        self.work_left = [0.0] * nodes

    @property
    def in_service(self) -> list[int | None]:
        return [server.in_service for server in self.servers]

    def _done(self, rid: int) -> None:
        self.on_done(rid)

    def submit(self, rid: int, node: int = 0) -> None:
        self.servers[node * self.num_classes + self.ledger.class_of(rid)].submit(rid)

    def apply_rates(self, rates, node: int = 0) -> None:
        capacity = self.capacities[node]
        if capacity is not None and sum(rates) > capacity:
            scale = capacity / sum(rates)
            rates = [rate * scale for rate in rates]
        c = self.num_classes
        for server, rate in zip(self.servers[node * c : (node + 1) * c], rates):
            server.set_rate(rate)

    def backlogs(self) -> tuple[int, ...]:
        c = self.num_classes
        return tuple(sum(len(server.queue) for server in self.servers[cls::c]) for cls in range(c))


class _SharedProcessor(_PerEvent):
    """One full-speed processor; the scheduler picks whenever it frees up."""

    def __init__(self, scheduler, capacity: float) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.capacity = capacity
        self.in_service: int | None = None

    def _on_bind(self) -> None:
        if self.scheduler.num_classes != self.num_classes:
            raise SimulationError("scheduler and classes disagree on the number of classes")

    def submit(self, rid: int) -> None:
        self.scheduler.enqueue(
            self.ledger.class_of(rid), self.ledger.size_of(rid), self.engine.now, payload=rid
        )
        self._serve_next()

    def _serve_next(self) -> None:
        if self.in_service is not None:
            return
        job = self.scheduler.select(self.engine.now)
        if job is None:
            return
        rid = job.payload
        self.ledger.start_service(rid, self.engine.now)
        self.in_service = rid
        self.engine.schedule_after(
            self.ledger.size_of(rid) / self.capacity, self._complete, label="completion"
        )

    def _complete(self) -> None:
        rid, self.in_service = self.in_service, None
        self.ledger.complete(rid, self.engine.now)
        self.on_done(rid)
        self._serve_next()

    def apply_rates(self, rates) -> None:
        if isinstance(self.scheduler, WeightedScheduler):
            self.scheduler.set_weights([max(r, WEIGHT_FLOOR) for r in rates])

    def backlogs(self) -> tuple[int, ...]:
        return tuple(self.scheduler.backlog(i) for i in range(self.num_classes))


class _Cluster(_PerEvent, ClusterServerModel):
    """The library cluster with per-request dispatch and completion sinks.

    Fleet events, rate partitioning, the live set and the policy view are
    inherited unchanged; request routing, completion booking, the pending
    and work-left tables and the drain-complete flips are restated, one
    request at a time, on a per-event bank.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bank = _RateScalable.of_nodes(self.bank.capacities)

    def _on_bind(self) -> None:
        super()._on_bind()
        self.bank.on_done = self._done

    def _sync_nodes(self, now: float) -> None:
        # Completions are booked by the bank's sink as their events fire.
        pass

    def submit(self, rid: int) -> None:
        if not self._live:
            raise ClusterDrainedError(
                f"request arrived while every node of the {self.num_nodes}-node "
                f"cluster is draining or down"
            )
        class_index = self.ledger.class_of(rid)
        node = self._checked_node(self.dispatch.select_node(rid, class_index))
        self.bank.pending[node][class_index] += 1
        self.bank.work_left[node] += self.ledger.size_of(rid)
        self.ledger.assign_nodes(rid, node)
        self.bank.submit(rid, node)

    def _done(self, rid: int) -> None:
        node = int(self.ledger.node[rid])
        pending = self.bank.pending[node]
        pending[self.ledger.class_of(rid)] -= 1
        work_left = self.bank.work_left
        work_left[node] = max(work_left[node] - self.ledger.size_of(rid), 0.0)
        if self._node_state[node] == NODE_DRAINING and not any(pending):
            self._mark_drained(node, self.engine.now)
        self.on_done(rid)


def window_stats(ledger, rows: slice, logged: slice):
    """One estimation window's arrivals, offered work and mean slowdowns,
    read from the ledger: the rows in ``rows`` (shed rows filtered out,
    which keeps relative order) and the completion log entries in
    ``logged``, each per-class sum one ``np.bincount`` in that order."""
    num_classes = ledger.num_classes
    kept = ledger.disposition[rows] != DISPOSITION_SHED
    arrived, sizes = ledger.class_index[rows][kept], ledger.size[rows][kept]
    arrivals = np.bincount(arrived, minlength=num_classes)
    work = np.bincount(arrived, weights=sizes, minlength=num_classes)
    done = ledger.completed_ids[logged]
    completed = ledger.class_index[done]
    sums = np.bincount(completed, weights=ledger.slowdowns(done), minlength=num_classes)
    counts = np.bincount(completed, minlength=num_classes)
    return (
        tuple(int(a) for a in arrivals),
        tuple(float(w) for w in work),
        tuple(float(s) / int(c) if c else float("nan") for s, c in zip(sums, counts)),
    )


def per_event_model(server: ServerModel) -> _PerEvent:
    """The per-event twin of a fresh (unbound) production server model.

    Dispatch policies, partitioners, fleet schedules and schedulers are
    handed over as they are, so the twin runs the same configuration.
    """
    if server.engine is not None:
        raise SimulationError("the reference needs a fresh, unbound server model")
    if isinstance(server, ClusterServerModel):
        return _Cluster(
            server.bank.capacities,
            dispatch=server.dispatch,
            partitioner=server.partitioner,
            fleet=server.fleet,
        )
    if isinstance(server, SharedProcessorServer):
        return _SharedProcessor(server.scheduler, server.capacity)
    if isinstance(server, RateScalableServers):
        return _RateScalable.of_nodes(server.capacities)
    raise TypeError(f"no per-event reference for {type(server).__name__}")


class ReferenceScenario(Scenario):
    """``Scenario`` with one engine event per arrival and per completion."""

    def __init__(self, classes, config, *, server: ServerModel | None = None, **kwargs) -> None:
        server = per_event_model(server if server is not None else RateScalableServers())
        super().__init__(classes, config, server=server, **kwargs)
        # Window cursors into the ledger: rows (arrival order) and the
        # completion log consumed so far by the window statistics.
        self._row_cursor = 0
        self._done_cursor = 0

    def _queue_block(self, bound: float, *, inclusive: bool = False) -> None:
        # Arrivals are engine events here, never pre-drawn blocks.
        pass

    def _sync_completions(self, now: float):
        # Completions are logged by their own events.
        return None, None

    def _tally_window(self, done, times):
        rows = slice(self._row_cursor, len(self.ledger))
        logged = slice(self._done_cursor, self.ledger.num_completed)
        self._row_cursor, self._done_cursor = rows.stop, logged.stop
        return window_stats(self.ledger, rows, logged)

    def run(self):
        for index, source in enumerate(self.sources):
            gap = source.next_interarrival()
            if np.isfinite(gap):
                self.engine.schedule_after(
                    gap, partial(self._arrive, index), label=f"arrival-{index}"
                )
        return super().run()

    def _arrive(self, class_index: int) -> None:
        source = self.sources[class_index]
        size = source.next_size()
        if self.admission is None:
            self.server.submit(self.ledger.append(class_index, self.engine.now, size))
        else:
            self._admit(class_index, size)
        gap = source.next_interarrival()
        if np.isfinite(gap):
            self.engine.schedule_after(
                gap, partial(self._arrive, class_index), label=f"arrival-{class_index}"
            )

    def _admit(self, class_index: int, size: float) -> None:
        now = self.engine.now
        obs = self._admission_obs._replace(time=now, backlogs=self.server.backlogs())
        decision = self.admission.decide(class_index, size, obs)
        if not isinstance(decision, AdmissionDecision):
            raise SimulationError(f"decide() returned {decision!r}")
        if self.telemetry is not None:
            self.telemetry.on_admission_block(
                np.asarray([class_index]), np.asarray([int(decision)])
            )
        if decision is AdmissionDecision.SHED:
            self.ledger.append(class_index, now, size, disposition=DISPOSITION_SHED)
            self._rejected[class_index] += 1
        elif decision is AdmissionDecision.DEGRADE:
            target = self._degrade_target(class_index)
            self._degraded_from[class_index] += 1
            self._degraded_to[target] += 1
            self.server.submit(
                self.ledger.append(target, now, size, disposition=DISPOSITION_DEGRADED)
            )
        else:
            self.server.submit(self.ledger.append(class_index, now, size))


def reference_build(build):
    """Wrap an experiment build so each replication runs on the reference.

    ``build`` is a replication build such as
    :class:`repro.experiments.ClusterScalingBuild` that constructs a
    ``Scenario`` from its module namespace; the wrapper swaps in
    :class:`ReferenceScenario` for the duration of each call.  The wrapper
    is a closure, so run it serially or on the forking worker pool.
    """
    module = sys.modules[type(build).__module__]

    def run(index, seed):
        original = module.Scenario
        module.Scenario = ReferenceScenario
        try:
            return build(index, seed)
        finally:
            module.Scenario = original

    return run
