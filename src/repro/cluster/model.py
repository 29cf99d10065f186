"""A multi-node cluster serving substrate.

:class:`ClusterServerModel` is a :class:`~repro.simulation.ServerModel` over
N nodes, each the paper's Fig. 1 model (one rate-scalable FCFS task server
per class), and routes every admitted request through a pluggable
:class:`~repro.cluster.dispatch.DispatchPolicy`.  All N * C class servers
live in one :class:`~repro.simulation.RateScalableServers` *bank*
(:attr:`ClusterServerModel.bank`, server ``node * C + class``), so a sync
drains, writes and merges every (node, class) server in one pass.  The
controller's per-class rate allocation is fanned out to the nodes by a
:class:`~repro.cluster.partition.RatePartitioner`, so the PSD feedback loop
closes over the whole cluster; ``backlogs()`` aggregates the per-class
counts from the pending table, so the existing monitor/estimator stack works
unchanged.

Capacity semantics: member rates are *absolute* (the equal-split cluster of
N nodes has the same total capacity as the single server).
Heterogeneous fleets declare per-node capacities (the maximum total rate a
node can sustain; assignments past it are served at the node's physical
speed): build them with ``make_cluster(..., capacities=...)``, read them via
:attr:`ClusterServerModel.capacities`, and pair capacity-aware dispatch
(``weighted_jsq``, ``fastest_available``, capacity-weighted random) with a
capacity-aware partitioner (``CapacityProportional``) so each node receives
rates and requests in proportion to what it can actually absorb.

The cluster additionally tracks, per node, the pending request count per
class (queued plus in service) and the outstanding full-rate work, which is
what the backlog-aware policies and partitioners consume.

Block dispatch: arrival blocks arrive pre-segmented at fleet event instants
(see :meth:`ClusterServerModel.block_boundaries`); within a segment the
fleet is static, and each block takes one of two routes:

* counter/weight policies with a ``select_block`` vectorise their choices
  over the whole block;
* every other policy (JSQ, least-work, fastest-available, custom policies
  implementing only ``select_node``) runs on a *completion calendar*.
  Between two rate changes an FCFS class server's completions are a fixed,
  non-decreasing fold of its arrivals, so the calendar's heap holds one
  entry per (node, class) server — the predicted start and completion of
  its earliest unbooked request, the *head* — and the requests behind it
  wait, unpredicted, in the server's FCFS deque.  The earliest completion
  is always some server's head, so before each decision the calendar books
  everything due by the arrival instant (``time <= arrival``, popped in
  ``(time, node, class)`` order), each booking promoting the next request
  of its server to head; a request placed on a server without a head
  becomes its head.  Each decision therefore reads the pending/work state
  of its instant, exactly as a one-event-per-request cluster would, taken
  from the policy's :meth:`~repro.cluster.dispatch.DispatchPolicy.chooser`,
  fetched once per block.  The bookings are the completion log and the
  deques the only queue: the bank receives no rows and, at each
  synchronisation, just takes the arrived heads into service; every rate
  change re-bases those and re-predicts the heads alone, from the bank's
  in-service state.

Either way completions are logged in ``(time, node, class)`` order, and
each block's node choices are written once into the ledger's ``node``
column (created at bind, ``-1`` for rows never dispatched), so the node
column, fleet timeline, rate histories and aggregates are bit-identical to
the per-event reference simulator the test suite keeps.

Live-state admission (:meth:`ClusterServerModel.walk`) runs on the calendar
whatever the policy, as its pending table after booking to an arrival
instant is the backlog that arrival's decision reads; a backlog-blind
policy then routes through its ``chooser``.

Dynamic fleets: a :class:`~repro.cluster.fleet.FleetSchedule` makes the
member set time-varying.  At every event the cluster updates its per-node
states (live / draining / down), notifies the dispatch policy to refresh any
cached per-node state, and immediately re-partitions the controller's
current rates over the live capacity vector — a leaving node keeps its
last-applied rates so its queued work still drains, and is fully down once
its pending queue empties.  The whole history lands in
:attr:`ClusterServerModel.fleet_timeline` for the monitor's availability
series.  An empty schedule is bit-identical to a cluster built without one.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain

import numpy as np

from ..errors import ClusterDrainedError, SimulationError
from ..simulation.server_models import _EMPTY_RIDS, RateScalableServers, ServerModel
from ..telemetry.log import get_logger, log_event
from ..validation import require_capacity
from .dispatch import DispatchPolicy, RoundRobin, build_dispatch_policy
from .fleet import NODE_DOWN, NODE_DRAINING, NODE_LIVE, FleetEvent, FleetSchedule
from .partition import EqualSplit, RatePartitioner

__all__ = ["ClusterServerModel", "make_cluster"]

#: Absolute slack allowed between a class's cluster-level rate and the sum of
#: its per-node shares before the partition is rejected as non-conserving.
RATE_CONSERVATION_TOL = 1e-9

_log = get_logger("cluster")

class ClusterServerModel(ServerModel):
    """N nodes' class servers behind a dispatch policy and a rate partitioner.

    Parameters
    ----------
    capacities:
        One capacity per node (the maximum total rate it can sustain; each
        finite and > 0, or ``None`` for an unconstrained node).
    dispatch:
        Routing policy; defaults to :class:`~repro.cluster.dispatch.RoundRobin`.
    partitioner:
        How the controller's per-class rates are split across nodes; defaults
        to the dispatch policy's preferred partitioner, or an equal split.
    fleet:
        Optional :class:`~repro.cluster.fleet.FleetSchedule` of node
        join/leave/degradation events applied at their simulation times.
        ``None`` (and the empty schedule) keeps the fleet static and
        bit-identical to the pre-fleet cluster.
    """

    def __init__(
        self,
        capacities: Sequence[float | None],
        *,
        dispatch: DispatchPolicy | None = None,
        partitioner: RatePartitioner | None = None,
        fleet: FleetSchedule | None = None,
    ) -> None:
        super().__init__()
        if not capacities:
            raise SimulationError("a cluster needs at least one node")
        #: Every node's class servers, one bank; fleet events write its
        #: capacity column.
        self.bank = RateScalableServers.of_nodes(
            [
                None if capacity is None else require_capacity(capacity, f"node {node} capacity")
                for node, capacity in enumerate(capacities)
            ]
        )
        self.dispatch = dispatch if dispatch is not None else RoundRobin()
        if partitioner is None:
            partitioner = self.dispatch.preferred_partitioner() or EqualSplit()
        self.partitioner = partitioner
        self.fleet = fleet if fleet is not None else FleetSchedule()
        self.fleet.validate_for(self.num_nodes)
        self._pending: list[list[int]] = []
        self._work_left: list[float] = []
        self._node_state: list[str] = []
        self._live: tuple[int, ...] = ()
        self._last_rates: tuple[float, ...] | None = None
        #: Fleet history: one ``(time, node_states, capacities)`` entry per
        #: state or capacity change, starting with the bind-time snapshot.
        #: States are the :data:`~repro.cluster.fleet.NODE_LIVE` /
        #: ``NODE_DRAINING`` / ``NODE_DOWN`` strings; feed the timeline to
        #: :func:`repro.simulation.fleet_availability` for a per-window
        #: per-node availability matrix.
        self.fleet_timeline: list[tuple[float, tuple[str, ...], tuple[float | None, ...]]] = []
        #: The last partition :meth:`apply_rates` made: one per-class share
        #: vector per node, before the capacity clamp (zeros for non-live
        #: nodes); ``None`` before the first.  The scenario's window table
        #: copies it at every boundary.
        self.shares: list[tuple[float, ...]] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.bank.capacities)

    # ------------------------------------------------------------------ #
    # Read-only view consumed by policies and partitioners
    # ------------------------------------------------------------------ #
    def pending(self, node: int, class_index: int) -> int:
        """Requests of ``class_index`` dispatched to ``node`` and not yet done
        (queued plus in service)."""
        return self._pending[node][class_index]

    def work_left(self, node: int) -> float:
        """Outstanding full-rate service demand dispatched to ``node``."""
        return self._work_left[node]

    @property
    def pending_table(self) -> list[list[int]]:
        """The live ``[node][class]`` pending counts, shared, not copied.

        Dispatch choosers close over it once and read it per decision; the
        cluster updates it in place.  Read it, never write it.
        """
        return self._pending

    @property
    def work_left_table(self) -> list[float]:
        """The live per-node outstanding work, shared like :attr:`pending_table`."""
        return self._work_left

    def dispatch_counts(self) -> tuple[tuple[int, ...], ...]:
        """Requests dispatched so far per node per class, from the ledger's
        node and class columns."""
        n, c = self.num_nodes, self.num_classes
        node = self.ledger.node
        dispatched = node >= 0
        pairs = node[dispatched].astype(np.int64) * c + self.ledger.class_index[dispatched]
        counts = np.bincount(pairs, minlength=n * c)
        return tuple(tuple(row) for row in counts.reshape(n, c).tolist())

    def node_capacity(self, node: int) -> float:
        """The member node's relative capacity (1.0 when undeclared).

        Capacity-aware policies and partitioners weight by this value; a
        fleet with no declared capacities therefore weights every node at
        exactly 1.0, reproducing the capacity-blind behaviour bit-for-bit.
        """
        capacity = self.bank.capacities[node]
        return 1.0 if capacity is None else capacity

    @property
    def capacities(self) -> tuple[float, ...]:
        """Per-node relative capacities (1.0 for undeclared nodes)."""
        return tuple(self.node_capacity(node) for node in range(self.num_nodes))

    def node_state(self, node: int) -> str:
        """The member node's fleet state (``live`` / ``draining`` / ``down``)."""
        return self._node_state[node]

    def is_live(self, node: int) -> bool:
        """Whether the member node currently accepts dispatches and rates."""
        return self._node_state[node] == NODE_LIVE

    @property
    def live_nodes(self) -> tuple[int, ...]:
        """Indices of the nodes currently accepting work, ascending."""
        return self._live

    # ------------------------------------------------------------------ #
    # ServerModel interface
    # ------------------------------------------------------------------ #
    def _on_bind(self) -> None:
        n, c = self.num_nodes, self.num_classes
        self._pending = [[0] * c for _ in range(n)]
        self._work_left = [0.0] * n
        self.ledger.track_nodes(n)
        down = set(self.fleet.initial_down)
        self._node_state = [NODE_DOWN if i in down else NODE_LIVE for i in range(n)]
        self._live = tuple(i for i in range(n) if self._node_state[i] == NODE_LIVE)
        self._last_rates = None
        self.fleet_timeline = []
        self.shares = None
        if self.telemetry is not None:
            self.bank.attach_telemetry(self.telemetry)
        # The bank shares the cluster's ledger, so row ids are valid
        # cluster-wide and the dispatch/pending bookkeeping never needs a
        # per-request object.
        self.bank.bind(self.engine, self.classes, ledger=self.ledger)
        self.dispatch.bind(self)
        # Dispatch state: the completion runs of the syncs since the last
        # drain, and the policy methods the dispatch loops call — bound once
        # here so the per-request path never repeats the attribute lookups.
        self._runs: list[np.ndarray] = []
        self._select_block = getattr(self.dispatch, "select_block", None)
        self._chooser = self.dispatch.chooser
        self._calendar: list[tuple[float, int, int, int, float, float]] | None = None
        if self._select_block is None:
            self._start_calendar()
        self._record_fleet_state()
        for event in self.fleet.events:
            self.engine.schedule_at(
                event.time, partial(self._apply_fleet_event, event), label="fleet"
            )

    def _start_calendar(self) -> None:
        """Start an empty completion calendar: a heap holding the
        ``(completion, node, class, rid, size, start)`` of each class
        server's head — its earliest unbooked request — and, per class
        server, the FCFS deque of its unbooked ``(rid, arrival, size)``
        (head first; the only queue on this route), its rate and last
        booked completion, plus the entries booked since the last sync and
        the booked ids awaiting the next drain."""
        n, c = self.num_nodes, self.num_classes
        self._calendar = []
        self._queues = [[deque() for _ in range(c)] for _ in range(n)]
        self._class_rates = [[0.0] * c for _ in range(n)]
        self._class_free = [[-np.inf] * c for _ in range(n)]
        self._booked: list[tuple[float, int, int, int, float, float]] = []
        self._booked_order: list[int] = []
        self._rebuild_calendar()

    def _mark_drained(self, node: int, time: float) -> None:
        """Drain complete: the leaving node served its last queued request
        at ``time`` and is now fully down (recorded for the timeline;
        dispatch and partitioning already excluded it)."""
        self._node_state[node] = NODE_DOWN
        self._record_fleet_state(time)
        log_event(_log, logging.INFO, "fleet.drain_complete", node=node, time=time)

    def _checked_node(self, node) -> int:
        """Validate a policy's choice: a live node index, never a bool."""
        if (
            isinstance(node, bool)
            or not isinstance(node, (int, np.integer))
            or not (0 <= node < self.num_nodes)
        ):
            raise SimulationError(
                f"dispatch policy {type(self.dispatch).__name__} chose invalid "
                f"node {node!r} (cluster has {self.num_nodes})"
            )
        node = int(node)
        if self._node_state[node] != NODE_LIVE:
            raise SimulationError(
                f"dispatch policy {type(self.dispatch).__name__} chose "
                f"{self._node_state[node]} node {node}; only live nodes accept work"
            )
        return node

    # ------------------------------------------------------------------ #
    # Fleet events
    # ------------------------------------------------------------------ #
    def _record_fleet_state(self, time: float | None = None) -> None:
        """Snapshot the node states; ``time`` overrides the engine clock.

        Drain-complete transitions are recorded at the emptying request's
        completion time, which the drains book ahead of the engine clock.
        """
        self.fleet_timeline.append(
            (
                self.engine.now if time is None else time,
                tuple(self._node_state),
                tuple(self.bank.capacities),
            )
        )

    def _apply_fleet_event(self, event: FleetEvent) -> None:
        # Everything the bank finished strictly *before* the event
        # instant must be booked first: drain-complete transitions land
        # before this event's timeline entry, and the re-partition below
        # reads the pending counts of that instant.  A completion tied
        # exactly with the event instant stays unbooked: the event applies
        # first (bind-time fleet events carry a lower engine sequence number
        # than any completion scheduled mid-run) and the completion after.
        self._sync_nodes(float(np.nextafter(self.engine.now, -np.inf)))
        state = self._node_state[event.node]
        if event.action == "leave":
            if state != NODE_LIVE:
                raise SimulationError(
                    f"fleet event {event.spec()!r}: node {event.node} is "
                    f"{state}, only a live node can leave"
                )
            self._node_state[event.node] = (
                NODE_DRAINING if any(self._pending[event.node]) else NODE_DOWN
            )
        elif event.action == "join":
            if state == NODE_LIVE:
                raise SimulationError(
                    f"fleet event {event.spec()!r}: node {event.node} is already live"
                )
            # Rejoining a draining node cancels the drain; its leftover
            # queue simply counts as pending work again.
            self._node_state[event.node] = NODE_LIVE
        else:  # set_capacity: degradation or recovery, applied in place
            self.bank.capacities[event.node] = event.capacity
        self._refresh_fleet()
        log_event(
            _log,
            logging.INFO,
            "fleet.event",
            action=event.action,
            node=event.node,
            time=self.engine.now,
            state=self._node_state[event.node],
            live=len(self._live),
        )

    def apply_fleet_event(self, event: FleetEvent) -> None:
        """Apply a runtime-generated fleet event at the current engine time.

        The endogenous entry point: autoscalers (see
        :mod:`repro.cluster.autoscale`) emit events *during* the run,
        stamped with the engine clock, and the scenario applies them
        synchronously inside its window-boundary callback.  Synchronous
        application is load-bearing for determinism — a join scheduled on
        the engine calendar at a boundary instant would fire *after* the
        same-boundary block submission, so the block would be dispatched
        under the pre-event fleet.  Events must carry the current engine
        time; anything else belongs in the bind-time
        :class:`~repro.cluster.fleet.FleetSchedule`.
        """
        if self.engine is None:
            raise SimulationError("apply_fleet_event requires a bound cluster")
        if event.time != self.engine.now:
            raise SimulationError(
                f"runtime fleet event {event.spec()!r} is stamped t={event.time:g} "
                f"but the engine clock reads {self.engine.now:g}; runtime events "
                f"apply at the instant they are emitted"
            )
        if event.node >= self.num_nodes:
            raise SimulationError(
                f"fleet event {event.spec()!r} targets node {event.node}, "
                f"cluster has {self.num_nodes}"
            )
        self._apply_fleet_event(event)

    def _refresh_fleet(self) -> None:
        """Re-normalise after a fleet event: live set, policy caches, rates."""
        self._live = tuple(i for i in range(self.num_nodes) if self._node_state[i] == NODE_LIVE)
        self._record_fleet_state()
        self.dispatch.fleet_changed()
        if self.telemetry is not None:
            self.telemetry.on_fleet_change(self)
        if self._last_rates is not None:
            # Re-partition the controller's current allocation immediately —
            # shares re-normalise over the live capacity vector at the event
            # time, not at the next estimation-window boundary.
            self.apply_rates(self._last_rates)

    def submit_batch(self, rids: np.ndarray) -> None:
        """Dispatch a time-ordered arrival block.

        Blocks arrive pre-segmented at fleet-event instants (see
        :meth:`block_boundaries`), so the live set is constant across the
        block and the empty-fleet check runs once.  Policies exposing
        ``select_block`` (whose decisions ignore backlog state) vectorise
        over the whole block; the rest replay the exact per-request decision
        sequence on the completion calendar (:meth:`_dispatch_predicted`).
        """
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return
        if not self._live:
            raise ClusterDrainedError(
                f"request arrived while every node of the {self.num_nodes}-node "
                f"cluster is draining or down; keep at least one node live "
                f"while traffic flows"
            )
        ledger = self.ledger
        classes = ledger.classes_of(rids)
        if self._calendar is None:
            self._dispatch_block(rids, classes)
            return
        rows = zip(
            ledger.arrivals_of(rids).tolist(),
            rids.tolist(),
            classes.tolist(),
            ledger.sizes_of(rids).tolist(),
        )
        ledger.assign_nodes(rids, self._dispatch_predicted(rows, self._chooser()))

    def walk(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        classes: np.ndarray,
        first: int,
        admit: Callable[[float, int, float, tuple[int, ...]], int],
    ) -> list[int]:
        """Live-state admission over one arrival segment, on the calendar.

        As :meth:`~repro.simulation.RateScalableServers.walk`, with
        :meth:`backlogs` read after booking to each arrival instant and
        each admitted row (arrival ``i`` is row ``first + i``) placed by
        :meth:`_dispatch_predicted`.  Only the calendar books completions
        between syncs, so a block-route cluster moves to it at its first
        walk, before any row is queued.  Returns the admitted rows' nodes,
        for the caller's one ``assign_nodes`` once the rows are appended.
        """
        if self._calendar is None:
            self._start_calendar()
        rows = zip(
            times.tolist(), range(first, first + times.shape[0]), classes.tolist(), sizes.tolist()
        )
        return self._dispatch_predicted(rows, self._chooser(), admit=admit)

    def _dispatch_block(self, rids: np.ndarray, classes: np.ndarray) -> None:
        """Vectorised block dispatch for backlog-blind policies.

        The policy's ``select_block`` produces the same node sequence its
        ``select_node`` would (cursor walks, RNG draws and home lookups do
        not depend on completions), so no completion interleaving is needed:
        the whole block's bookkeeping collapses to two bincounts, one node
        column scatter and one bank submission of the gathered columns.
        ``select_block`` implementations guarantee live choices, so the
        per-request validation of :meth:`_checked_node` is skipped here.
        """
        choices = self._select_block(rids, classes)
        n, c = self.num_nodes, self.num_classes
        ledger = self.ledger
        ledger.assign_nodes(rids, choices)
        sizes = ledger.sizes_of(rids)
        pair_counts = np.bincount(choices * c + classes, minlength=n * c).reshape(n, c).tolist()
        work_add = np.bincount(choices, weights=sizes, minlength=n)
        for node in range(n):
            row_counts = pair_counts[node]
            if not any(row_counts):
                continue
            row_pending = self._pending[node]
            for cls, k in enumerate(row_counts):
                row_pending[cls] += k
            self._work_left[node] += float(work_add[node])
        self.bank.submit_batch(rids, choices, classes, ledger.arrivals_of(rids), sizes)

    def _dispatch_predicted(
        self,
        rows: Iterable[tuple[float, int, int, float]],
        choose: Callable[[int, int], int] | None = None,
        until: float = -np.inf,
        admit: Callable[[float, int, float, tuple[int, ...]], int] | None = None,
    ) -> list[int]:
        """Replay the exact per-request decision sequence on the calendar.

        ``rows`` are ``(arrival, rid, class, size)`` in time order, routed
        by ``choose``.  Before each decision the calendar books every
        completion due by the arrival instant (``<= t``: completions tied
        with an arrival land first, the single-server convention); after
        the block, every one due by ``until`` (how :meth:`_sync_nodes`
        books, with no rows).  ``admit`` (:meth:`walk`) re-classes or drops
        each row first.  Booking pops a head in ``(time, node, class)``
        order and promotes the next request of its class server with the
        bank's fold — ``start = max(arrival, previous completion)``,
        ``completion = start + size / rate``.  A request placed on a server
        without a head becomes its head if the server runs (``start =
        max(arrival, last booked completion)``); any other waits,
        unpredicted, in the server's deque — behind a frozen (zero-rate)
        server until the next rate change rebuilds the calendar.  The bank receives no rows, so the
        per-request cost is one chooser call, at most one heap operation per
        placement and per booking, and list bookkeeping.  Returns the nodes
        chosen, in row order.
        """
        calendar = self._calendar
        queues = self._queues
        rates = self._class_rates
        free = self._class_free
        pending = self._pending
        work_left = self._work_left
        node_state = self._node_state
        book = self._booked.append
        choices: list[int] = []
        chose = choices.append
        # The closing row (rid -1) books up to ``until`` and ends the loop.
        for t, rid, cls, size in chain(rows, ((until, -1, 0, 0.0),)):
            while calendar and calendar[0][0] <= t:
                entry = calendar[0]
                done, node, c, _, s, _ = entry
                queue = queues[node][c]
                queue.popleft()
                free[node][c] = done
                if queue:
                    head, a, z = queue[0]
                    start = a if a > done else done
                    heapreplace(calendar, (start + z / rates[node][c], node, c, head, z, start))
                else:
                    heappop(calendar)
                book(entry)
                row = pending[node]
                row[c] -= 1
                # Clamp (as ``max(work, 0.0)``): summation order can leave
                # ~1e-16 residuals behind.
                work = work_left[node] - s
                work_left[node] = 0.0 if work < 0.0 else work
                if node_state[node] == NODE_DRAINING and not any(row):
                    self._mark_drained(node, done)
            if rid < 0:
                break
            if admit is not None:
                cls = admit(t, cls, size, self.backlogs())
                if cls < 0:
                    continue
            node = choose(rid, cls)
            pending[node][cls] += 1
            work_left[node] += size
            chose(node)
            queue = queues[node][cls]
            if not queue:
                rate = rates[node][cls]
                if rate > 0.0:
                    last = free[node][cls]
                    start = t if t > last else last
                    heappush(calendar, (start + size / rate, node, cls, rid, size, start))
            queue.append((rid, t, size))
        return choices

    def _rebuild_calendar(self) -> None:
        """Re-predict each class server's head at the new rates.

        A prediction holds only while the rates stay put, so every
        :meth:`apply_rates` rebuilds the calendar — always right after a
        full synchronisation, when the bank's in-service requests are
        exactly the arrived heads.  A head in service completes where the
        bank's drain would complete it (``progress + remaining / rate``,
        re-based by the rate change); a head that has not started yet at
        ``arrival + size / rate``; a frozen server's head gets no entry.
        The requests queued behind the heads stay unpredicted, so a rebuild
        costs one look per class server, not one prediction per waiting
        request.
        """
        calendar = self._calendar
        calendar.clear()
        ledger = self.ledger
        bank = self.bank
        c = self.num_classes
        for node, (queues, rates) in enumerate(zip(self._queues, self._class_rates)):
            for cls, queue in enumerate(queues):
                s = node * c + cls
                rate = rates[cls] = bank.rates[s]
                if not queue or rate <= 0.0:
                    continue
                rid, arrival, size = queue[0]
                busy = bank.in_service[s]
                if busy is None:
                    start = arrival
                    done = arrival + size / rate
                elif busy == rid:
                    start = ledger.start_of(rid)
                    done = bank.progress[s] + bank.remaining[s] / rate
                else:
                    raise SimulationError(
                        f"node {node} serves row {busy} of class {cls}, but the "
                        f"calendar's head is row {rid}"
                    )
                calendar.append((done, node, cls, rid, size, start))
        heapify(calendar)

    def _sync_nodes(self, now: float) -> None:
        """Fully synchronise the bank to ``now`` (rate-change points).

        On the calendar route the calendar books every completion up to
        ``now`` and hands the bank every server's arrived head in one
        :meth:`~repro.simulation.RateScalableServers.drain`, starting a new
        head at ``max(arrival, last booked completion)`` — a frozen
        (zero-rate) head, which has no calendar entry, thus starts before
        any rate change re-bases it.  The rows booked since the last sync
        reach the ledger in one checked ``serve_batch`` (rows already in
        service: ``complete_batch``) and wait in booking order for
        :meth:`drain`.

        On the block route one bank drain serves every (node, class)
        server and returns their merged run, which waits for :meth:`drain`.
        Its bookkeeping follows from the run: each server's pending count
        drops by its run length (``bank.drained``), and each node's work
        left folds over the node's rows in merged order.  The drain-complete
        flips land at each emptied node's last completion, applied in
        ``(time, node)`` order, as the calendar pops them.

        Called wherever :meth:`apply_rates` may follow — the cluster-level
        drain and fleet events.
        """
        if self._calendar is None:
            run = self.bank.drain(now)
            if run.size:
                self._runs.append(run)
                self._book_run(run)
            return
        # The booking rule has one copy: replay an empty block.
        self._dispatch_predicted((), until=now)
        booked = self._booked
        # Bookings pop in time order, so the last one is the latest.
        if booked and booked[-1][0] > now:
            raise SimulationError(
                f"node {booked[-1][1]}: a completion is booked at t={booked[-1][0]:g}, "
                f"after the drain to t={now:g}; the drain is behind completions "
                f"that dispatch already booked"
            )
        self.bank.drain(
            now,
            [
                (q[0][0], max(q[0][1], last), q[0][2]) if q and q[0][1] <= now else None
                for queues, free in zip(self._queues, self._class_free)
                for q, last in zip(queues, free)
            ],
        )
        if not booked:
            return
        self._booked = []
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            # One drain-length observation per node and class with bookings.
            c = self.num_classes
            counts = Counter(entry[1] * c + entry[2] for entry in booked)
            for key in sorted(counts):
                telemetry.on_server_drain(key % c, counts[key])
        ledger = self.ledger
        done, _, _, rids, _, starts = zip(*booked)
        self._booked_order += rids
        rids = np.array(rids, dtype=np.int64)
        done = np.array(done)
        # Rows carried in service since an earlier sync only complete.
        started = ~np.isnan(ledger.service_start_time[rids])
        fresh = ~started
        ledger.serve_batch(rids[fresh], np.array(starts)[fresh], done[fresh])
        ledger.complete_batch(rids[started], done[started])

    def _book_run(self, run: np.ndarray) -> None:
        """Book a block-route bank drain's merged ``run`` into pending and
        work left, and apply the drain-complete flips it causes."""
        c = self.num_classes
        pending = self._pending
        nodes: list[int] = []
        for s, k in self.bank.drained:
            node, cls = divmod(s, c)
            pending[node][cls] -= k
            if not nodes or nodes[-1] != node:
                nodes.append(node)
        ledger = self.ledger
        sizes = ledger.sizes_of(run)
        of_node = ledger.node[run] if len(nodes) > 1 else None
        flips = []
        for node in nodes:
            mine = slice(None) if of_node is None else of_node == node
            # The scalar fold ``work = max(work - size, 0.0)`` over the
            # node's rows in completion order, bit for bit:
            # ``subtract.accumulate`` subtracts left to right, and as sizes
            # are non-negative the unclamped fold never rises — once it dips
            # below zero (summation order can leave ~1e-16 residuals) it
            # stays there, where the clamped fold ends at 0.0.
            work = np.subtract.accumulate(np.concatenate(([self._work_left[node]], sizes[mine])))
            self._work_left[node] = 0.0 if work[-1] < 0.0 else float(work[-1])
            if self._node_state[node] == NODE_DRAINING and not any(pending[node]):
                # A draining node gets no new work: it empties at its last
                # completion.
                flips.append((float(ledger.completion_time[run[mine][-1]]), node))
        for time, node in sorted(flips):
            self._mark_drained(node, time)

    def drain(self, now: float) -> np.ndarray:
        """Advance every node to ``now``; returns completions in time order.

        On the calendar route that is the booking order; on the block route
        the runs of the syncs since the last drain, in sync order (a sync
        completes every row due by its instant, so each run ends before the
        next begins).
        """
        self._sync_nodes(now)
        if self._calendar is not None:
            order = self._booked_order
            self._booked_order = []
            return np.array(order, dtype=np.int64)
        runs = self._runs
        if not runs:
            return _EMPTY_RIDS
        self._runs = []
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    def block_boundaries(self, start: float, end: float) -> tuple[float, ...]:
        """Fleet-event instants strictly inside the span.

        Arrival blocks are cut here so every arrival at or after an event
        instant is dispatched under the post-event fleet — fleet events
        (scheduled at bind time, hence with lower sequence numbers) fire
        before same-instant arrivals.
        """
        return self.fleet.times_between(start, end)

    def apply_rates(self, rates: Sequence[float]) -> None:
        if len(rates) != self.num_classes:
            raise SimulationError(f"expected {self.num_classes} rates, got {len(rates)}")
        rates = tuple(float(r) for r in rates)
        self._last_rates = rates
        if not self._live:
            # Full outage: no live node to partition over.  Draining nodes
            # keep their last-applied rates so queued work still flushes;
            # the allocation is re-applied the moment a node joins.
            log_event(
                _log,
                logging.WARNING,
                "cluster.full_outage",
                num_nodes=self.num_nodes,
                total_rate=sum(rates),
            )
            return
        shares = self.partitioner.partition(rates, self)
        if len(shares) != self.num_nodes:
            raise SimulationError(
                f"partitioner returned {len(shares)} share vectors for "
                f"{self.num_nodes} nodes"
            )
        for c, rate in enumerate(rates):
            assigned = sum(share[c] for share in shares)
            if abs(assigned - rate) > RATE_CONSERVATION_TOL:
                raise SimulationError(
                    f"partitioner does not conserve class {c}'s rate: allocated "
                    f"{rate}, distributed {assigned}"
                )
        self.shares = shares
        # Non-live nodes keep their last rates: a draining node must finish
        # its queued work, and a down node holds none.
        for node in self._live:
            self.bank.apply_rates(shares[node], node)
        if self._calendar is not None:
            self._rebuild_calendar()

    def backlogs(self) -> tuple[int, ...]:
        # Queued requests, not those in service: each server's pending count
        # but one.  No drain needed: the live admission walk reads it at
        # every arrival instant.
        totals = [0] * self.num_classes
        for row in self._pending:
            for cls, count in enumerate(row):
                if count > 1:
                    totals[cls] += count - 1
        return tuple(totals)


def make_cluster(
    num_nodes: int,
    policy: str | DispatchPolicy = "round_robin",
    *,
    capacities: Sequence[float] | None = None,
    partitioner: RatePartitioner | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 0,
    fleet: FleetSchedule | None = None,
) -> ClusterServerModel:
    """Build a cluster of ``num_nodes`` nodes.

    ``policy`` is a :data:`~repro.cluster.dispatch.DISPATCH_POLICIES` name
    (``seed`` feeds randomised policies — spawn it from the scenario's master
    seed for reproducible runs) or an already-built policy instance.

    ``capacities`` builds a heterogeneous fleet: one finite, strictly
    positive capacity per node, taken verbatim (use
    :func:`~repro.cluster.capacity.resolve_capacities` to turn
    a named mix or relative weights into absolute capacities first).  Without
    it every node is unconstrained — the homogeneous cluster.

    ``fleet`` attaches a :class:`~repro.cluster.fleet.FleetSchedule` of node
    join/leave/degradation events (build one with
    :func:`~repro.cluster.fleet.parse_fleet_events`); ``None`` keeps the
    fleet static.
    """
    if num_nodes <= 0:
        raise SimulationError(f"num_nodes must be > 0, got {num_nodes}")
    if isinstance(policy, DispatchPolicy):
        dispatch = policy
    else:
        dispatch = build_dispatch_policy(policy, seed=seed)
    if capacities is None:
        capacities = [None] * num_nodes
    elif len(capacities) != num_nodes:
        raise SimulationError(f"expected {num_nodes} per-node capacities, got {len(capacities)}")
    return ClusterServerModel(
        capacities,
        dispatch=dispatch,
        partitioner=partitioner,
        fleet=fleet,
    )
