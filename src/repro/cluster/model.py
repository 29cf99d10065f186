"""A multi-node cluster serving substrate.

:class:`ClusterServerModel` is a :class:`~repro.simulation.ServerModel` over
N nodes, each the paper's Fig. 1 model (one rate-scalable FCFS task server
per class), and routes every admitted request through a pluggable
:class:`~repro.cluster.dispatch.DispatchPolicy`.  All N * C class servers
live in one :class:`~repro.simulation.RateScalableServers` *bank*
(:attr:`ClusterServerModel.bank`, server ``node * C + class``), which owns
every server's state: queues, service positions, last completions, and the
per-node pending counts per class (queued plus in service) and outstanding
full-rate work that the backlog-aware policies and partitioners read
(:attr:`~ClusterServerModel.pending_table`,
:attr:`~ClusterServerModel.work_left_table`).  The controller's per-class
rate allocation is fanned out to the nodes by a
:class:`~repro.cluster.partition.RatePartitioner`, so the PSD feedback loop
closes over the whole cluster.  The cluster keeps what is a cluster's: the
fleet states and timeline, the dispatch policy, the partition, and the
ledger's ``node`` column.

Capacity semantics: member rates are *absolute* (the equal-split cluster of
N nodes has the same total capacity as the single server).
Heterogeneous fleets declare per-node capacities (the maximum total rate a
node can sustain; assignments past it are served at the node's physical
speed): build them with ``make_cluster(..., capacities=...)``, read them via
:attr:`ClusterServerModel.capacities`, and pair capacity-aware dispatch
(``weighted_jsq``, ``fastest_available``, capacity-weighted random) with a
capacity-aware partitioner (``CapacityProportional``) so each node receives
rates and requests in proportion to what it can actually absorb.

Block dispatch: arrival blocks arrive pre-segmented at fleet event instants
(see :meth:`ClusterServerModel.block_boundaries`), so within a block the
fleet is static.  A policy with a ``select_block`` (counter/weight
policies) vectorises its choices and the bank queues the block; every
other policy places it on the bank's completion calendar
(:meth:`~repro.simulation.RateScalableServers.dispatch`), where the
policy's :meth:`~repro.cluster.dispatch.DispatchPolicy.chooser` reads the
pending/work state of each arrival's instant, exactly as a
one-event-per-request cluster would.  Either way a sync is one bank drain
(rows in ``(time, node, class)`` order); then every draining node left
with nothing pending flips to down at its last completion, in ``(time,
node)`` order.  Each block's node choices are written once into the
ledger's ``node`` column (``-1`` for rows never dispatched), so the node
column, fleet timeline, rate histories and aggregates are bit-identical
to the per-event reference simulator the test suite keeps.

Live-state admission (:meth:`ClusterServerModel.walk`) runs the bank's
walk on the calendar whatever the policy, as the pending table after
booking to an arrival instant is the backlog that arrival's decision reads;
a backlog-blind policy then routes through its ``chooser``.

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
from collections.abc import Callable, Sequence
from functools import partial

import numpy as np

from ..errors import ClusterDrainedError, SimulationError
from ..simulation.server_models import _EMPTY_RIDS, _EMPTY_TIMES, RateScalableServers, ServerModel
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
        return self.bank.pending[node][class_index]

    def work_left(self, node: int) -> float:
        """Outstanding full-rate service demand dispatched to ``node``."""
        return self.bank.work_left[node]

    @property
    def pending_table(self) -> list[list[int]]:
        """The bank's live ``[node][class]`` pending counts, shared, not copied.

        Dispatch choosers close over it once and read it per decision; the
        bank updates it in place.  Read it, never write it.
        """
        return self.bank.pending

    @property
    def work_left_table(self) -> list[float]:
        """The bank's live per-node outstanding work, shared like
        :attr:`pending_table`."""
        return self.bank.work_left

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
        n = self.num_nodes
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
        # The completion runs ``(rids, times)`` of the syncs since the last
        # drain, and the policy methods dispatch calls, bound once.
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []
        self._select_block = getattr(self.dispatch, "select_block", None)
        self._chooser = self.dispatch.chooser
        self._record_fleet_state()
        for event in self.fleet.events:
            self.engine.schedule_at(
                event.time, partial(self._apply_fleet_event, event), label="fleet"
            )

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
                NODE_DRAINING if any(self.bank.pending[event.node]) else NODE_DOWN
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

    def submit_batch(self, rids, classes=None, arrivals=None, sizes=None) -> None:
        """Dispatch a time-ordered arrival block.

        Blocks arrive pre-segmented at fleet-event instants (see
        :meth:`block_boundaries`), so the live set is constant across the
        block and the empty-fleet check runs once.  Policies exposing
        ``select_block`` (whose decisions ignore backlog state, so their
        node sequence equals ``select_node``'s) choose the whole block at
        once and the bank queues it; the rest replay the exact per-request
        decision sequence on the bank's completion calendar
        (:meth:`~repro.simulation.RateScalableServers.dispatch`).
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
        classes, arrivals, sizes = self._block_columns(rids, classes, arrivals, sizes)
        if self._select_block is None:
            nodes = self.bank.dispatch(rids, classes, arrivals, sizes, self._chooser())
            ledger.assign_nodes(rids, nodes)
            self._flip_drained()
            return
        # ``select_block`` implementations guarantee live choices, so the
        # per-request validation of :meth:`_checked_node` is skipped.
        nodes = self._select_block(rids, classes)
        ledger.assign_nodes(rids, nodes)
        self.bank.submit_batch(rids, classes, arrivals, sizes, nodes)

    def walk(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        classes: np.ndarray,
        first: int,
        admit: Callable[[float, int, float, tuple[int, ...]], int],
    ) -> list[int]:
        """Live-state admission over one arrival segment: the bank's
        :meth:`~repro.simulation.RateScalableServers.walk`, each admitted
        row placed by the policy's chooser.  Returns the admitted rows'
        nodes, for the caller's one ``assign_nodes`` once the rows are
        appended."""
        nodes = self.bank.walk(times, sizes, classes, first, admit, self._chooser())
        self._flip_drained()
        return nodes

    def _flip_drained(self) -> None:
        """Drain complete, after the bank booked completions: every draining
        node with nothing pending went down at its last completion, the
        latest of its servers' (a draining node gets no new work).  Flips
        land in ``(time, node)`` order."""
        if NODE_DRAINING not in self._node_state:
            return
        c = self.num_classes
        free = self.bank.free
        flips = sorted(
            (max(free[node * c : (node + 1) * c]), node)
            for node, state in enumerate(self._node_state)
            if state == NODE_DRAINING and not any(self.bank.pending[node])
        )
        for time, node in flips:
            self._mark_drained(node, time)

    def _sync_nodes(self, now: float) -> None:
        """Drain the bank to ``now`` and apply the drain-complete flips; the
        run waits for :meth:`drain`.  Called wherever :meth:`apply_rates`
        may follow — the cluster-level drain and fleet events."""
        run = self.bank.drain(now)
        if run.size:
            self._runs.append((run, self.bank.drained_times))
        self._flip_drained()

    def drain(self, now: float) -> np.ndarray:
        """Advance every node to ``now``; returns completions in time order
        (their times in :attr:`drained_times`): the runs of the syncs since
        the last drain, in sync order (a sync completes every row due by
        its instant, so each run ends before the next begins)."""
        self._sync_nodes(now)
        runs = self._runs
        if not runs:
            self.drained_times = _EMPTY_TIMES
            return _EMPTY_RIDS
        self._runs = []
        rids, times = runs[0] if len(runs) == 1 else map(np.concatenate, zip(*runs))
        self.drained_times = times
        return rids

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

    def backlogs(self) -> tuple[int, ...]:
        return self.bank.backlogs()


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
