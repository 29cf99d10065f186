"""Rate-partitioner conservation under heterogeneous capacities.

The conservation contract — for every class the per-node shares sum to the
class's cluster-level rate — is what keeps the PSD feedback loop closed over
exactly the capacity the controller allocated.  These tests pin it down for
every registered partitioner over heterogeneous fleets, pending-queue
skews, the single-node degenerate case, and the zero-capacity rejection
path.
"""

import pytest

from repro.cluster import (
    PARTITIONERS,
    BacklogProportional,
    CapacityProportional,
    build_partitioner,
    make_cluster,
    resolve_capacities,
)
from repro.errors import SimulationError
from repro.simulation import SimulationEngine
from tests.conftest import make_classes

RATES = (0.55, 0.3, 0.1)

CAPACITY_GRID = (
    None,
    (1.0, 1.0, 1.0, 1.0),
    resolve_capacities("2:1", 4),
    resolve_capacities("pow2", 4),
    (0.9, 0.05, 0.03, 0.02),
)


def bound_cluster(capacities, num_nodes=4, pending=None):
    from repro.distributions import Deterministic

    classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0, 3.0))
    cluster = make_cluster(num_nodes, "round_robin", capacities=capacities)
    cluster.bind(SimulationEngine(), classes)
    if pending is not None:
        for node, counts in enumerate(pending):
            for class_index, count in enumerate(counts):
                cluster.pending_table[node][class_index] = count
    return cluster


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
@pytest.mark.parametrize("capacities", CAPACITY_GRID)
def test_shares_sum_to_class_rate(name, capacities):
    cluster = bound_cluster(capacities)
    shares = build_partitioner(name).partition(RATES, cluster)
    assert len(shares) == cluster.num_nodes
    for c, rate in enumerate(RATES):
        assert sum(share[c] for share in shares) == pytest.approx(rate, abs=1e-12)
        assert all(share[c] >= 0.0 for share in shares)


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
@pytest.mark.parametrize("capacities", CAPACITY_GRID)
def test_conservation_survives_pending_skew(name, capacities):
    # All of one class piled on the slowest node, another class untouched.
    pending = [(0, 0, 0), (0, 0, 0), (0, 0, 0), (9, 0, 3)]
    cluster = bound_cluster(capacities, pending=pending)
    shares = build_partitioner(name).partition(RATES, cluster)
    for c, rate in enumerate(RATES):
        assert sum(share[c] for share in shares) == pytest.approx(rate, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_single_node_degenerate_case(name):
    cluster = bound_cluster(None, num_nodes=1)
    shares = build_partitioner(name).partition(RATES, cluster)
    assert shares == [RATES]


@pytest.mark.parametrize("capacities", [caps for caps in CAPACITY_GRID if caps])
def test_capacity_proportional_tracks_capacities(capacities):
    cluster = bound_cluster(capacities)
    shares = CapacityProportional().partition(RATES, cluster)
    total = sum(capacities)
    for node, capacity in enumerate(capacities):
        for c, rate in enumerate(RATES):
            assert shares[node][c] == pytest.approx(rate * capacity / total)


def test_capacity_proportional_equals_equal_split_on_uniform_fleet():
    cluster = bound_cluster(None)
    capacity = CapacityProportional().partition(RATES, cluster)
    equal = build_partitioner("equal").partition(RATES, cluster)
    # Bit-identical, not approximately equal: undeclared nodes weigh exactly
    # 1.0 and `rate * 1.0 / n == rate / n` in IEEE arithmetic.
    assert capacity == equal


def test_backlog_proportional_weighs_pending_by_capacity():
    capacities = (0.75, 0.25)
    pending = [(2, 0, 0), (2, 0, 0)]
    cluster = bound_cluster(capacities, num_nodes=2, pending=pending)
    shares = BacklogProportional(smoothing=0.0).partition(RATES, cluster)
    # Equal backlogs: the 3x faster node receives 3x the rate share.
    assert shares[0][0] == pytest.approx(RATES[0] * 0.75)
    assert shares[1][0] == pytest.approx(RATES[0] * 0.25)
    # No pending anywhere for class 1: capacity-proportional fallback.
    assert shares[0][1] == pytest.approx(RATES[1] * 0.75)
    assert shares[1][1] == pytest.approx(RATES[1] * 0.25)


def test_zero_capacity_nodes_are_rejected_up_front():
    with pytest.raises(SimulationError, match="non-positive"):
        make_cluster(2, capacities=(1.0, 0.0))
    with pytest.raises(SimulationError, match="non-positive"):
        resolve_capacities((1.0, 0.0), 2)
    with pytest.raises(SimulationError, match="non-positive"):
        resolve_capacities((0.0, 0.0), 2)


def test_cluster_validates_conservation_with_capacities():
    """The cluster-level guard keeps rejecting leaky splits on hetero fleets."""

    class Leaky(CapacityProportional):
        def partition(self, rates, cluster):
            shares = super().partition(rates, cluster)
            return [tuple(s * 0.5 for s in share) for share in shares]

    cluster = bound_cluster(resolve_capacities("2:1", 4))
    cluster.partitioner = Leaky()
    with pytest.raises(SimulationError, match="conserve"):
        cluster.apply_rates(RATES)
