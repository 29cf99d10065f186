"""Pluggable dispatch policies: which cluster node serves each request.

A :class:`DispatchPolicy` is the routing brain of a
:class:`~repro.cluster.model.ClusterServerModel`: every admitted request's
ledger row id and class are handed to :meth:`DispatchPolicy.select_node`,
which returns the index of the member node that will serve it.  Policies see the cluster
through a small read-only view (node/class counts, per-node pending work,
the shared :class:`~repro.simulation.ledger.RequestLedger` for per-request
columns).

Determinism contract: given the same cluster state and, for randomised
policies, the same seed, ``select_node`` returns the same node.  All ties are
broken by the lowest node index, so a whole simulation run is reproducible
from the scenario's master seed alone.

Dynamic fleets: every policy selects only from the cluster's *live* nodes
(``cluster.live_nodes``) — draining and down nodes are skipped
deterministically, and the cluster calls :meth:`DispatchPolicy.
fleet_changed` at every fleet event so policies can refresh cached per-node
state (choosers, weighted-random cumulative weights).  On a fully
live fleet the live set is every node, so static clusters behave
bit-identically to the pre-fleet policies.

Policies hold per-run state (round-robin cursors, RNG streams) and are bound
to exactly one cluster — build a fresh policy per scenario, exactly like
server models.
"""

from __future__ import annotations

import abc
import logging
from collections.abc import Callable, Sequence

import numpy as np

from ..distributions.rng import make_generator
from ..errors import ClusterDrainedError, SimulationError
from ..telemetry.log import get_logger, log_event

__all__ = [
    "DispatchPolicy",
    "RoundRobin",
    "WeightedRandom",
    "JoinShortestQueue",
    "CapacityWeightedJsq",
    "FastestAvailable",
    "LeastWorkLeft",
    "ClassAffinity",
    "DISPATCH_POLICIES",
    "build_dispatch_policy",
]

_log = get_logger("dispatch")


class DispatchPolicy(abc.ABC):
    """Protocol for cluster request routing.

    The cluster calls :meth:`bind` exactly once (handing over a read-only
    view of itself — see :class:`~repro.cluster.model.ClusterServerModel` for
    the accessors policies may use: ``num_nodes``, ``num_classes``,
    ``pending``, ``work_left``, ``pending_table``, ``work_left_table``,
    ``live_nodes``, ``ledger``).  It then routes each admitted request
    through ``select_block`` when the policy has one, and through the
    :meth:`chooser` it fetches once per arrival block otherwise.
    Implementing :meth:`select_node` is enough for a policy with neither:
    the default chooser calls it once per request, with the request's
    ledger row id and class.  The cluster routes through ``select_block``
    or :meth:`chooser` whenever one exists, so a subclass that overrides
    :meth:`select_node` must override those too.
    """

    def __init__(self) -> None:
        self.cluster = None

    def bind(self, cluster) -> None:
        """Attach the policy to its cluster; validates policy parameters."""
        if self.cluster is not None:
            raise SimulationError(
                "dispatch policy is already bound to a cluster; build a fresh "
                "policy per scenario (they hold per-run state)"
            )
        if cluster.num_nodes <= 0:
            raise SimulationError("cluster must have at least one node")
        self.cluster = cluster
        self._on_bind()

    def _on_bind(self) -> None:
        """Validate parameters against the bound cluster (optional hook)."""

    def fleet_changed(self) -> None:
        """The cluster's live set or capacity vector changed mid-run.

        Called by :class:`~repro.cluster.model.ClusterServerModel` at every
        fleet event, before the rates are re-partitioned.  Policies caching
        per-node state refresh it in :meth:`_on_fleet_change`.
        """
        self._on_fleet_change()
        live = getattr(self.cluster, "live_nodes", None) if self.cluster is not None else None
        log_event(
            _log,
            logging.DEBUG,
            "dispatch.fleet_changed",
            policy=type(self).__name__,
            live=-1 if live is None else len(live),
        )

    def _on_fleet_change(self) -> None:
        """Refresh cached per-node state (optional hook)."""

    def preferred_partitioner(self):
        """The rate partitioner this policy works best with, or ``None``.

        Used by :class:`~repro.cluster.model.ClusterServerModel` when the
        caller does not pick a partitioner explicitly; ``None`` selects the
        cluster's default (equal split).  :class:`ClassAffinity` overrides
        this — splitting a class's rate over nodes that never see its
        requests would waste capacity.
        """
        return None

    @abc.abstractmethod
    def select_node(self, rid: int, class_index: int) -> int:
        """The index of the member node that will serve ledger row ``rid``
        of class ``class_index``.

        Under live-state admission the node is chosen before the row is
        written to the ledger, so a policy must take the class from its
        argument, never from the row.
        """

    def chooser(self) -> Callable[[int, int], int]:
        """The policy's decision as ``choose(rid, class_index) -> node``.

        The cluster fetches it once per arrival block and calls it once per
        request, with the row id and class.  This default wraps
        :meth:`select_node` and validates every choice (a live node index,
        never a bool), so a custom policy implementing only
        :meth:`select_node` works unchanged.

        Built-in backlog-dependent policies return a closure over the
        cluster's own state instead: ``pending_table`` and
        ``work_left_table`` (read live, never written), the live tuple and
        the capacities.  The last two change only at fleet events, so the
        closure is rebuilt at bind time and in :meth:`_on_fleet_change`;
        blocks are cut at every fleet event, so one fetch serves a whole
        block.  A built-in chooser picks only from the live tuple, so its
        choices skip validation (the trust contract of ``select_block``).
        """
        select_node = self.select_node
        checked = self.cluster._checked_node

        def choose(rid: int, class_index: int) -> int:
            return checked(select_node(rid, class_index))

        return choose

    # Policies whose decisions do not read live backlogs may additionally
    # implement ``select_block(rids, classes) -> np.ndarray`` — the node
    # choice for a whole arrival block in one vectorised call, bit-identical
    # to ``select_node`` applied per request in order.  The cluster
    # dispatches blocks through it when present, and through the
    # :meth:`chooser` otherwise.


class _BacklogPolicy(DispatchPolicy):
    """A backlog-dependent policy: its decision rule lives in one chooser.

    Subclasses implement :meth:`_build_chooser` over a non-empty live tuple;
    the chooser is cached and rebuilt at every fleet event, and
    :meth:`select_node` is the same chooser.
    """

    def _on_bind(self) -> None:
        self._refresh_chooser()

    def _on_fleet_change(self) -> None:
        # Live set or capacities changed: rebuild over the new state.
        self._refresh_chooser()

    def _refresh_chooser(self) -> None:
        live = self.cluster.live_nodes
        self._choose = self._build_chooser(live) if live else _drained

    @abc.abstractmethod
    def _build_chooser(self, live: tuple[int, ...]) -> Callable[[int, int], int]:
        """The decision closure over the cluster state, for a fixed live set."""

    def chooser(self) -> Callable[[int, int], int]:
        return self._choose

    def select_node(self, rid: int, class_index: int) -> int:
        return self._choose(rid, class_index)

    def _inverse_capacities(self) -> tuple[float, ...]:
        cluster = self.cluster
        return tuple(1.0 / cluster.node_capacity(node) for node in range(cluster.num_nodes))


def _drained(rid: int, class_index: int) -> int:
    """The chooser of a fleet with no live node."""
    raise ClusterDrainedError("every cluster node is draining or down; no live node exists")


class RoundRobin(DispatchPolicy):
    """Cycle through the live nodes in index order, one request per node.

    The cursor walks every node index; non-live nodes are skipped in place,
    so a node that rejoins resumes its old slot in the cycle and a fully
    live fleet cycles exactly as the pre-fleet policy did.
    """

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select_node(self, rid: int, class_index: int) -> int:
        cluster = self.cluster
        n = cluster.num_nodes
        is_live = getattr(cluster, "is_live", None)
        node = self._next
        for _ in range(n):
            if is_live is None or is_live(node):
                self._next = (node + 1) % n
                return node
            node = (node + 1) % n
        raise ClusterDrainedError("round-robin found no live node to dispatch to")

    def select_block(self, rids: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Whole-block round robin: the live nodes in cyclic order.

        Per request, :meth:`select_node` picks the first live node at or
        after the cursor (cyclically) and parks the cursor one past it — so
        consecutive picks walk the sorted live set in cyclic order starting
        from the cursor's position in it.  One modular ``arange`` reproduces
        the whole sequence.
        """
        cluster = self.cluster
        live = getattr(cluster, "live_nodes", None)
        if live is None:
            live = tuple(range(cluster.num_nodes))
        if not live:
            raise ClusterDrainedError("round-robin found no live node to dispatch to")
        first = int(np.searchsorted(live, self._next))
        if first == len(live):
            first = 0
        choices = np.asarray(live, dtype=np.int64)[
            (first + np.arange(rids.shape[0])) % len(live)
        ]
        self._next = (int(choices[-1]) + 1) % cluster.num_nodes
        return choices


class WeightedRandom(DispatchPolicy):
    """Pick a node at random with the given (or capacity) weights.

    Without explicit weights the draw is weighted by the cluster's per-node
    capacities — uniform over a fleet with no declared capacities (every
    node weighs exactly 1.0, so homogeneous clusters are bit-identical to
    the pre-capacity behaviour), proportional to node speed over a
    heterogeneous one.

    The stream is an explicit :class:`numpy.random.Generator` seeded by the
    caller — scenario builders spawn it from the scenario's master seed so a
    run's dispatch sequence is reproducible bit-for-bit.
    """

    def __init__(
        self,
        weights: Sequence[float] | None = None,
        *,
        seed: int | np.random.SeedSequence | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        self.weights = None if weights is None else tuple(float(w) for w in weights)
        self.rng = make_generator(seed)
        self._cumulative: np.ndarray | None = None

    def _on_bind(self) -> None:
        weights = self.weights
        if weights is None:
            weights = self.cluster.capacities
        if len(weights) != self.cluster.num_nodes:
            raise SimulationError(
                f"expected {self.cluster.num_nodes} node weights, got {len(weights)}"
            )
        if any(w < 0.0 for w in weights) or sum(weights) <= 0.0:
            raise SimulationError("node weights must be non-negative with a positive sum")
        self._rebuild_cumulative()

    def _on_fleet_change(self) -> None:
        # Live set or capacities changed: re-normalise the draw over the
        # live weights (capacity defaults re-read the current vector).
        self._rebuild_cumulative()

    def _rebuild_cumulative(self) -> None:
        cluster = self.cluster
        weights = np.asarray(
            self.weights if self.weights is not None else cluster.capacities,
            dtype=float,
        )
        is_live = getattr(cluster, "is_live", None)
        if is_live is not None:
            live = np.asarray([is_live(node) for node in range(cluster.num_nodes)], dtype=bool)
            weights = np.where(live, weights, 0.0)
        total = weights.sum()
        if total <= 0.0:
            # No live weight anywhere (full outage): selection is impossible
            # until a node joins, which rebuilds the cumulative again.
            self._cumulative = None
            return
        self._cumulative = np.cumsum(weights)
        self._cumulative /= self._cumulative[-1]

    def select_node(self, rid: int, class_index: int) -> int:
        if self._cumulative is None:
            raise ClusterDrainedError("weighted-random draw has no live node weight")
        return int(np.searchsorted(self._cumulative, self.rng.random(), side="right"))

    def select_block(self, rids: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Whole-block weighted draw off the same RNG stream.

        ``Generator.random(k)`` yields the identical value sequence as ``k``
        scalar ``random()`` calls, so the block's choices are bit-identical
        to per-request draws — the cumulative weights are fixed within a
        block (blocks are cut at every fleet event).
        """
        if self._cumulative is None:
            raise ClusterDrainedError("weighted-random draw has no live node weight")
        return np.searchsorted(
            self._cumulative, self.rng.random(rids.shape[0]), side="right"
        ).astype(np.int64)


class JoinShortestQueue(_BacklogPolicy):
    """Send the request to the node with the fewest pending requests.

    ``pending`` counts queued *and* in-service requests of the request's own
    class (the per-class backlog the monitor stack also sees), so a node busy
    with the class is never mistaken for an idle one.  Ties are broken by the
    lowest node index, which keeps runs deterministic.
    """

    def _build_chooser(self, live: tuple[int, ...]) -> Callable[[int, int], int]:
        pending = self.cluster.pending_table
        first, rest = live[0], live[1:]

        def choose(rid: int, class_index: int) -> int:
            best, best_pending = first, pending[first][class_index]
            for node in rest:
                count = pending[node][class_index]
                if count < best_pending:
                    best, best_pending = node, count
            return best

        return choose


class CapacityWeightedJsq(_BacklogPolicy):
    """Join-shortest-queue on capacity-normalised per-class pending counts.

    A fast node drains its queue proportionally faster, so the quantity that
    predicts a new request's delay is ``pending / capacity``, not the raw
    count — the policy sends the request to the node minimising it.  On a
    fleet with no declared capacities every node weighs 1.0 and the policy
    selects exactly the nodes plain :class:`JoinShortestQueue` would.  Ties
    are broken by the lowest node index, keeping runs deterministic.

    Pairs naturally with the
    :class:`~repro.cluster.partition.CapacityProportional` partitioner (its
    :meth:`preferred_partitioner`): requests and rates then both arrive in
    proportion to capacity, making each node a capacity-scaled replica of
    the single server.
    """

    def preferred_partitioner(self):
        from .partition import CapacityProportional

        return CapacityProportional()

    def _build_chooser(self, live: tuple[int, ...]) -> Callable[[int, int], int]:
        # set_capacity events change the vector in place; re-read it.
        self._inverse_capacity = inverse = self._inverse_capacities()
        pending = self.cluster.pending_table
        first, rest = live[0], live[1:]
        first_inverse = inverse[first]
        weighted = tuple((node, inverse[node]) for node in rest)

        def choose(rid: int, class_index: int) -> int:
            best, best_load = first, pending[first][class_index] * first_inverse
            for node, node_inverse in weighted:
                load = pending[node][class_index] * node_inverse
                if load < best_load:
                    best, best_load = node, load
            return best

        return choose


class FastestAvailable(_BacklogPolicy):
    """Send the request to the fastest idle node, else the least loaded.

    An idle node (no outstanding work) serves the request immediately, so
    among idle nodes the fastest wins.  When every node is busy the policy
    falls back to the node with the least outstanding work *per unit of
    capacity* — the one expected to become available first.  All ties are
    broken by the lowest node index.
    """

    def preferred_partitioner(self):
        from .partition import CapacityProportional

        return CapacityProportional()

    def _build_chooser(self, live: tuple[int, ...]) -> Callable[[int, int], int]:
        self._inverse_capacity = inverse = self._inverse_capacities()
        cluster = self.cluster
        work_left = cluster.work_left_table
        first = live[0]
        first_inverse = inverse[first]
        weighted = tuple((node, cluster.node_capacity(node), inverse[node]) for node in live)

        def choose(rid: int, class_index: int) -> int:
            fastest, fastest_capacity = -1, 0.0
            best, best_eta = first, work_left[first] * first_inverse
            for node, capacity, node_inverse in weighted:
                work = work_left[node]
                if work == 0.0 and capacity > fastest_capacity:
                    fastest, fastest_capacity = node, capacity
                eta = work * node_inverse
                if eta < best_eta:
                    best, best_eta = node, eta
            return fastest if fastest >= 0 else best

        return choose


class LeastWorkLeft(_BacklogPolicy):
    """Send the request to the node with the least outstanding work.

    Outstanding work is the total full-rate service demand of every request
    dispatched to the node and not yet completed (all classes).  Ties are
    broken by the lowest node index.
    """

    def _build_chooser(self, live: tuple[int, ...]) -> Callable[[int, int], int]:
        work_left = self.cluster.work_left_table
        first, rest = live[0], live[1:]

        def choose(rid: int, class_index: int) -> int:
            best, best_work = first, work_left[first]
            for node in rest:
                work = work_left[node]
                if work < best_work:
                    best, best_work = node, work
            return best

        return choose


class ClassAffinity(DispatchPolicy):
    """Partition the request classes across the nodes.

    Every class is pinned to exactly one home node (``partition[c]`` is the
    node serving class ``c``); by default class ``c`` lives on node
    ``c % num_nodes``.  Pairs with an affinity-aware rate partitioner (its
    :meth:`preferred_partitioner`) so each class's allocated rate lands on
    the node that actually serves it.

    When a home node is draining or down, the class fails over to the next
    live node scanning upwards from the home index (wrapping around) — a
    deterministic rule shared with :class:`~repro.cluster.partition.
    AffinityPartitioner`, so requests and rates fail over together and fall
    back the moment the home node rejoins.
    """

    def __init__(self, partition: Sequence[int] | None = None) -> None:
        super().__init__()
        self.partition = None if partition is None else tuple(partition)

    def _on_bind(self) -> None:
        cluster = self.cluster
        if self.partition is None:
            self.partition = tuple(c % cluster.num_nodes for c in range(cluster.num_classes))
        if len(self.partition) != cluster.num_classes:
            raise SimulationError(
                f"partition maps {len(self.partition)} classes, cluster has "
                f"{cluster.num_classes}"
            )
        for class_index, node in enumerate(self.partition):
            if not isinstance(node, (int, np.integer)) or isinstance(node, bool):
                raise SimulationError(
                    f"partition[{class_index}] must be a node index, got {node!r}"
                )
            if not (0 <= node < cluster.num_nodes):
                raise SimulationError(
                    f"partition[{class_index}] = {node} out of range "
                    f"[0, {cluster.num_nodes})"
                )
        self.partition = tuple(int(node) for node in self.partition)

    def preferred_partitioner(self):
        from .partition import AffinityPartitioner

        return AffinityPartitioner(self)

    def effective_home(self, class_index: int) -> int:
        """The class's home node, or its deterministic live fallback.

        The fallback scans upwards from the home index (wrapping) for the
        first live node; :class:`~repro.cluster.partition.AffinityPartitioner`
        uses the same rule, keeping the class's requests and rate on one
        node through any outage.
        """
        home = self.partition[class_index]
        cluster = self.cluster
        is_live = getattr(cluster, "is_live", None)
        if is_live is None or is_live(home):
            return home
        n = cluster.num_nodes
        for offset in range(1, n):
            node = (home + offset) % n
            if is_live(node):
                return node
        raise ClusterDrainedError(
            f"class {class_index}'s home node {home} and every fallback are "
            f"draining or down"
        )

    def select_node(self, rid: int, class_index: int) -> int:
        return self.effective_home(class_index)

    def select_block(self, rids: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Whole-block affinity routing via a per-class home table.

        The effective home of every class is constant between fleet events
        (blocks are cut at each one), so one gather over the class column
        reproduces the per-request decisions exactly.
        """
        homes = np.asarray(
            [self.effective_home(c) for c in range(self.cluster.num_classes)],
            dtype=np.int64,
        )
        return homes[classes]


#: Registry of dispatch-policy factories by short name, as accepted by the
#: experiments CLI (``--dispatch``) and :func:`build_dispatch_policy`.  Each
#: factory takes the seed for the policy's RNG stream (ignored by the
#: deterministic policies).
DISPATCH_POLICIES: dict[str, Callable[..., DispatchPolicy]] = {
    "round_robin": lambda *, seed=0: RoundRobin(),
    "weighted_random": lambda *, seed=0: WeightedRandom(seed=seed),
    "jsq": lambda *, seed=0: JoinShortestQueue(),
    "weighted_jsq": lambda *, seed=0: CapacityWeightedJsq(),
    "fastest_available": lambda *, seed=0: FastestAvailable(),
    "least_work": lambda *, seed=0: LeastWorkLeft(),
    "affinity": lambda *, seed=0: ClassAffinity(),
}


def build_dispatch_policy(
    name: str, *, seed: int | np.random.SeedSequence | np.random.Generator | None = 0
) -> DispatchPolicy:
    """Build a fresh dispatch policy by registry name.

    ``seed`` feeds the RNG stream of randomised policies (currently only
    ``weighted_random``); deterministic policies ignore it.
    """
    try:
        factory = DISPATCH_POLICIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown dispatch policy {name!r}; available: {sorted(DISPATCH_POLICIES)}"
        ) from None
    return factory(seed=seed)
