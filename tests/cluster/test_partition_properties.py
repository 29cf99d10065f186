"""Property-based partitioner invariants (hypothesis).

Two contracts every registered partitioner must uphold over *any* fleet
state — randomized capacity vectors, pending-queue skews, and live-node
masks including the ones drain/leave produce:

* **conservation** — for every class, the per-node shares sum to the
  class's cluster-level rate (within float tolerance);
* **non-negativity and containment** — every share is ``>= 0``, and
  draining/down nodes receive exactly ``0.0``.

The stub cluster view mirrors the read-only surface real partitioners see
(``num_nodes`` / ``num_classes`` / ``pending`` / ``node_capacity`` /
``live_nodes`` / ``is_live``); a final test drives the *real*
:class:`~repro.cluster.ClusterServerModel` through actual leave events so
the masks are produced by the drain path itself, not hand-rolled.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PARTITIONERS,
    BacklogProportional,
    build_partitioner,
    make_cluster,
    parse_fleet_events,
)
from repro.errors import ClusterDrainedError
from repro.simulation import SimulationEngine
from tests.conftest import make_classes

#: Absolute share-sum tolerance, matching the cluster's conservation check.
TOL = 1e-9


class StubClusterView:
    """The read-only cluster surface partitioners consume, as plain data."""

    def __init__(self, capacities, pending, live_mask):
        self.num_nodes = len(pending)
        self.num_classes = len(pending[0])
        self._capacities = capacities
        self._pending = pending
        self._live_mask = live_mask

    def pending(self, node, class_index):
        return self._pending[node][class_index]

    def node_capacity(self, node):
        return 1.0 if self._capacities is None else self._capacities[node]

    @property
    def live_nodes(self):
        return tuple(n for n in range(self.num_nodes) if self._live_mask[n])

    def is_live(self, node):
        return self._live_mask[node]


@st.composite
def fleet_states(draw, *, require_live=True):
    """A random (view, rates) pair: capacities, pendings, live mask, rates."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    num_classes = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=1e-3, max_value=64.0, allow_nan=False),
                min_size=num_nodes,
                max_size=num_nodes,
            ),
        )
    )
    pending = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=num_classes,
                max_size=num_classes,
            ),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    if require_live:
        mask = draw(st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes).filter(any))
    else:
        mask = [False] * num_nodes
    rates = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=num_classes,
            max_size=num_classes,
        )
    )
    return StubClusterView(capacities, pending, mask), tuple(rates)


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
@settings(max_examples=120, deadline=None)
@given(state=fleet_states())
def test_share_conservation_and_non_negativity(name, state):
    view, rates = state
    shares = build_partitioner(name).partition(rates, view)
    assert len(shares) == view.num_nodes
    for node, share in enumerate(shares):
        assert len(share) == view.num_classes
        for value in share:
            assert value >= 0.0
            assert math.isfinite(value)
        if not view.is_live(node):
            assert all(value == 0.0 for value in share), (
                f"{name} handed rate to non-live node {node}"
            )
    for c, rate in enumerate(rates):
        assigned = sum(share[c] for share in shares)
        assert assigned == pytest.approx(rate, abs=TOL), (
            f"{name} does not conserve class {c}: {assigned} != {rate}"
        )


@settings(max_examples=60, deadline=None)
@given(state=fleet_states(), smoothing=st.sampled_from([0.0, 0.25, 1.0, 3.0]))
def test_backlog_proportional_conserves_for_any_smoothing(state, smoothing):
    view, rates = state
    shares = BacklogProportional(smoothing=smoothing).partition(rates, view)
    for c, rate in enumerate(rates):
        assert sum(share[c] for share in shares) == pytest.approx(rate, abs=TOL)
        assert all(share[c] >= 0.0 for share in shares)


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
@settings(max_examples=25, deadline=None)
@given(state=fleet_states(require_live=False))
def test_empty_live_set_raises_cluster_drained(name, state):
    view, rates = state
    with pytest.raises(ClusterDrainedError):
        build_partitioner(name).partition(rates, view)


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
@settings(max_examples=40, deadline=None)
@given(
    leavers=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
    rates=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
)
def test_conservation_over_masks_produced_by_real_drain(name, leavers, rates):
    """Masks from the actual leave/drain path, not hand-rolled booleans."""
    from repro.distributions import Deterministic

    classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
    tokens = " ".join(f"leave:{node}@1" for node in sorted(leavers))
    cluster = make_cluster(
        4,
        "round_robin",
        capacities=(0.4, 0.3, 0.2, 0.1),
        fleet=parse_fleet_events(tokens) if tokens else None,
    )
    engine = SimulationEngine()
    cluster.bind(engine, classes)
    cluster.apply_rates((0.0, 0.0))
    # Park one request on node 0 so a leaving node 0 is *draining* (not
    # down) when the partition runs — the mask must exclude it either way.
    cluster.submit_batch(np.asarray([cluster.ledger.append(0, 0.0, 100.0)], dtype=np.int64))
    engine.run_until(2.0)
    live = set(cluster.live_nodes)
    assert live == {0, 1, 2, 3} - leavers
    rates = tuple(rates)
    shares = build_partitioner(name).partition(rates, cluster)
    for node, share in enumerate(shares):
        if node not in live:
            assert all(value == 0.0 for value in share)
        assert all(value >= 0.0 for value in share)
    for c, rate in enumerate(rates):
        assert sum(share[c] for share in shares) == pytest.approx(rate, abs=TOL)
