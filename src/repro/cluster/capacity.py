"""Capacity mixes: describing heterogeneous fleets compactly.

A heterogeneous cluster is described by one capacity per node — the maximum
total processing rate the node can sustain, in the controller's normalised
units (the paper's single server has capacity 1).  :func:`resolve_capacities`
turns the compact specs accepted by the experiment layer and the CLI into a
concrete per-node capacity vector:

* ``None`` or ``"uniform"`` — no declared capacities; every node is the
  unconstrained idealised server (exactly the pre-heterogeneity cluster).
* a named mix — ``"2:1"`` (the first half of the fleet twice as fast as the
  second) or ``"pow2"`` (power-of-two ladder: each node twice as fast as the
  next).
* an explicit sequence of relative weights, e.g. ``(3, 1, 1)``.

Named and explicit mixes are *relative* weights, normalised so the fleet's
total capacity equals ``total`` (1.0 by default — the single unit server the
controller allocates against); this keeps every heterogeneous sweep
comparable to the paper's baseline, with the capacity-aware partitioners
able to saturate the fleet and capacity-blind ones physically unable to.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import SimulationError
from ..validation import require_capacity

__all__ = ["CAPACITY_MIXES", "resolve_capacities", "mix_label"]


def _two_to_one(num_nodes: int) -> tuple[float, ...]:
    fast = (num_nodes + 1) // 2
    return tuple(2.0 if node < fast else 1.0 for node in range(num_nodes))


def _power_of_two(num_nodes: int) -> tuple[float, ...]:
    return tuple(float(2 ** (num_nodes - 1 - node)) for node in range(num_nodes))


#: Named capacity mixes accepted by :func:`resolve_capacities`; each maps a
#: node count to a vector of relative speed weights (normalised afterwards).
CAPACITY_MIXES = {
    "uniform": lambda num_nodes: None,
    "2:1": _two_to_one,
    "pow2": _power_of_two,
}


def mix_label(capacities: "str | Sequence[float] | None") -> str:
    """A short human-readable label for a capacity-mix spec."""
    if capacities is None:
        return "uniform"
    if isinstance(capacities, str):
        return capacities
    return ":".join(f"{float(c):g}" for c in capacities)


def resolve_capacities(
    capacities: "str | Sequence[float] | None",
    num_nodes: int,
    *,
    total: float = 1.0,
) -> tuple[float, ...] | None:
    """Resolve a capacity-mix spec to per-node capacities summing to ``total``.

    Returns ``None`` for the uniform (unconstrained) mix — including any
    explicit all-equal vector: after normalisation such a fleet is exactly
    the homogeneous cluster whose capacity constraint can never bind, and
    returning ``None`` guarantees homogeneous sweeps stay *bit-identical* to
    the pre-heterogeneity cluster instead of merely equivalent up to float
    jitter at the clamp boundary.  (A caller who wants genuinely *binding*
    uniform caps — e.g. to watch a backlog-proportional split clamp against
    them — should pass absolute capacities straight to
    :func:`~repro.cluster.model.make_cluster`, which honours them verbatim.)
    Explicit vectors must have one finite, strictly positive weight per
    node — a zero-capacity node could never serve anything, and an infinite
    one would leave every other node a zero share; both are rejected, as is
    a mix so widely spread that a node's normalised capacity underflows.
    """
    if num_nodes <= 0:
        raise SimulationError(f"num_nodes must be > 0, got {num_nodes}")
    require_capacity(total, "total capacity")
    if capacities is None:
        return None
    if isinstance(capacities, str):
        try:
            weights = CAPACITY_MIXES[capacities](num_nodes)
        except KeyError:
            raise SimulationError(
                f"unknown capacity mix {capacities!r}; "
                f"available: {sorted(CAPACITY_MIXES)}"
            ) from None
        if weights is None:
            return None
    else:
        weights = tuple(float(c) for c in capacities)
        if len(weights) != num_nodes:
            raise SimulationError(f"expected {num_nodes} per-node capacities, got {len(weights)}")
    for node, weight in enumerate(weights):
        require_capacity(weight, f"node {node} capacity")
    if min(weights) == max(weights):
        return None
    scale = total / sum(weights)
    return tuple(
        require_capacity(weight * scale, f"resolved node {node} capacity")
        for node, weight in enumerate(weights)
    )
