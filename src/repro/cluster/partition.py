"""Rate partitioners: fanning the controller's allocation out to nodes.

The PSD controller allocates one processing rate per *class* for the whole
system; a cluster must decide how much of each class's rate every member
node receives.  A :class:`RatePartitioner` makes that decision at every
estimation-window boundary, when
:meth:`~repro.cluster.model.ClusterServerModel.apply_rates` runs.

Conservation contract: for every class, the per-node shares must sum to the
class's cluster-level rate (the cluster validates this, with a small float
tolerance), so the feedback loop closes over exactly the capacity the
controller allocated.

Heterogeneous fleets: partitioners read the per-node capacities through the
cluster view (``node_capacity``).  :class:`CapacityProportional` splits each
class's rate in proportion to node capacity — the share a node can actually
absorb — and :class:`BacklogProportional` weighs each node's pending count
by its capacity, so a fast node with the same backlog (which it will drain
sooner) receives proportionally more rate.  With no declared capacities
every node weighs exactly 1.0 and both reduce bit-identically to their
capacity-blind behaviour.

Dynamic fleets: every partitioner re-normalises over the cluster's *live*
nodes (:func:`~repro.cluster.fleet.live_nodes_of`) — draining and down
nodes receive a zero share (a draining node keeps serving its queue at its
last-applied rates; the cluster never pushes new rates into it), and each
class's full rate is conserved over the live set alone.  On a fully live
fleet the live set is every node and the arithmetic is bit-identical to the
pre-fleet partitioners.  An empty live set raises
:class:`~repro.errors.ClusterDrainedError`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence

from ..errors import SimulationError
from .fleet import live_nodes_of

__all__ = [
    "RatePartitioner",
    "EqualSplit",
    "BacklogProportional",
    "CapacityProportional",
    "AffinityPartitioner",
    "PARTITIONERS",
    "build_partitioner",
]


class RatePartitioner(abc.ABC):
    """Protocol for splitting per-class rates across cluster nodes."""

    @abc.abstractmethod
    def partition(self, rates: Sequence[float], cluster) -> list[tuple[float, ...]]:
        """One per-class rate vector per node, conserving each class's rate.

        ``cluster`` is the read-only view also given to dispatch policies
        (``num_nodes``, ``num_classes``, ``pending``, ``work_left``).
        """


class EqualSplit(RatePartitioner):
    """Every node receives ``rate / num_nodes`` of every class's rate.

    The predictable baseline: with a dispatch policy that spreads requests
    evenly (round-robin, weighted random, JSQ) each node is a 1/N-scale copy
    of the single server, and the slowdown metric — waiting time over time in
    service — is invariant under that uniform scaling.
    """

    def partition(self, rates: Sequence[float], cluster) -> list[tuple[float, ...]]:
        live = live_nodes_of(cluster)
        share = tuple(rate / len(live) for rate in rates)
        zero = tuple(0.0 for _ in rates)
        shares = [zero] * cluster.num_nodes
        for node in live:
            shares[node] = share
        return shares


class BacklogProportional(RatePartitioner):
    """Split each class's rate in proportion to the nodes' pending requests.

    For class ``c`` node ``n`` receives weight
    ``(pending(n, c) + smoothing) * capacity(n)``; the default
    ``smoothing=1`` keeps every node's share strictly positive, so a request
    dispatched to a momentarily empty node is never frozen until the next
    estimation window.  ``smoothing=0`` gives the pure proportional split
    (falling back to a capacity-proportional split when no requests of the
    class are pending anywhere).

    The capacity factor makes the split heterogeneity-aware: of two nodes
    with equal backlogs the faster one can absorb more rate, and a slow node
    is never handed a share past what it can physically serve just because
    its queue (which its own slowness grew) is long.  Undeclared capacities
    weigh 1.0, so homogeneous clusters split bit-identically to the
    capacity-blind behaviour.
    """

    def __init__(self, smoothing: float = 1.0) -> None:
        if smoothing < 0.0:
            raise SimulationError(f"smoothing must be >= 0, got {smoothing}")
        self.smoothing = float(smoothing)

    def partition(self, rates: Sequence[float], cluster) -> list[tuple[float, ...]]:
        nodes, shares = cluster.num_nodes, []
        live = live_nodes_of(cluster)
        capacities = [cluster.node_capacity(node) for node in range(nodes)]
        for node in range(nodes):
            shares.append([0.0] * len(rates))
        for c, rate in enumerate(rates):
            weights = [0.0] * nodes
            for node in live:
                weights[node] = (cluster.pending(node, c) + self.smoothing) * capacities[node]
            total = sum(weights)
            if total <= 0.0:
                capacity_total = sum(capacities[node] for node in live)
                for node in live:
                    shares[node][c] = rate * capacities[node] / capacity_total
            else:
                for node in live:
                    shares[node][c] = rate * weights[node] / total
        return [tuple(share) for share in shares]


class CapacityProportional(RatePartitioner):
    """Split each class's rate in proportion to the nodes' capacities.

    Node ``n`` receives ``rate * capacity(n) / sum(capacities)`` of every
    class's rate — exactly the share of the fleet's total speed it
    contributes, i.e. what it can actually absorb.  Paired with
    capacity-aware dispatch (``weighted_jsq``, capacity-weighted random)
    every node becomes a capacity-scaled replica of the single server, which
    is what keeps the slowdown metric (and hence the PSD ratios) invariant
    over a heterogeneous fleet.  Over undeclared (all-1.0) capacities this
    is bit-identical to :class:`EqualSplit`.
    """

    def partition(self, rates: Sequence[float], cluster) -> list[tuple[float, ...]]:
        live = live_nodes_of(cluster)
        capacities = [cluster.node_capacity(node) for node in live]
        total = sum(capacities)
        if not total > 0.0:
            raise SimulationError(f"cluster capacities sum to {total}; cannot split rates")
        zero = tuple(0.0 for _ in rates)
        shares = [zero] * cluster.num_nodes
        for node, capacity in zip(live, capacities):
            shares[node] = tuple(rate * capacity / total for rate in rates)
        return shares


class AffinityPartitioner(RatePartitioner):
    """Give each class's whole rate to its :class:`ClassAffinity` home node.

    The natural partner of class-affinity dispatch: every request of class
    ``c`` goes to ``partition[c]``, so that node must also receive the full
    per-class rate — an equal split would serve the class at ``rate / N``
    while the other nodes' shares idle, destabilising the queue at loads an
    undivided server would sustain.  When a home node is draining or down
    the rate follows :meth:`~repro.cluster.dispatch.ClassAffinity.
    effective_home` — the same deterministic fallback the dispatch side
    uses, so requests and rates stay together through fleet churn.
    """

    def __init__(self, affinity) -> None:
        self.affinity = affinity

    def partition(self, rates: Sequence[float], cluster) -> list[tuple[float, ...]]:
        partition = self.affinity.partition
        if partition is None or len(partition) != len(rates):
            raise SimulationError(
                "AffinityPartitioner requires a bound ClassAffinity policy with "
                "one home node per class"
            )
        shares = [[0.0] * len(rates) for _ in range(cluster.num_nodes)]
        for c, rate in enumerate(rates):
            shares[self.affinity.effective_home(c)][c] = rate
        return [tuple(share) for share in shares]


#: Registry of rate-partitioner factories by short name, as accepted by the
#: experiments CLI and picklable experiment builds.  The affinity-aware
#: partitioner is absent on purpose: it needs its dispatch policy, so it is
#: only ever built through :meth:`ClassAffinity.preferred_partitioner`.
PARTITIONERS: dict[str, Callable[[], RatePartitioner]] = {
    "equal": EqualSplit,
    "backlog": BacklogProportional,
    "capacity": CapacityProportional,
}


def build_partitioner(name: str) -> RatePartitioner:
    """Build a fresh rate partitioner by registry name."""
    try:
        factory = PARTITIONERS[name]
    except KeyError:
        raise SimulationError(
            f"unknown rate partitioner {name!r}; available: {sorted(PARTITIONERS)}"
        ) from None
    return factory()
