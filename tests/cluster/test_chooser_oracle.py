"""The backlog-dependent choosers against a brute-force oracle (hypothesis).

The oracle below is written from the policies' documented rules alone and
shares no code with :mod:`repro.cluster.dispatch`: for each decision it
scans every live node and keeps the best key, ties going to the lowest
index.  The cluster state is random — per-class pending counts, work left
(with exact zeros, so idle nodes occur), declared or undeclared capacities
changed by ``set_capacity`` events, and live subsets produced by real
``leave`` events — and both the cached ``chooser()`` and ``select_node``
must agree with the oracle and pick a live node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterServerModel, build_dispatch_policy
from repro.cluster.fleet import FleetEvent
from repro.distributions import Deterministic
from repro.errors import ClusterDrainedError
from repro.simulation import SimulationEngine
from tests.conftest import make_classes

BACKLOG_POLICIES = ("jsq", "weighted_jsq", "least_work", "fastest_available")

capacity_values = st.one_of(st.none(), st.floats(min_value=1e-3, max_value=64.0))


def lowest_argmin(nodes, key):
    """The first node with the smallest key (``nodes`` ascending)."""
    best = None
    for node in nodes:
        if best is None or key(node) < key(best):
            best = node
    return best


def oracle(name, live, class_index, pending, work_left, capacities):
    """The node the named policy must choose, by brute force."""
    weight = [1.0 / cap for cap in capacities]  # capacity-normalised keys
    if name == "jsq":
        return lowest_argmin(live, lambda n: pending[n][class_index])
    if name == "weighted_jsq":
        return lowest_argmin(live, lambda n: pending[n][class_index] * weight[n])
    if name == "least_work":
        return lowest_argmin(live, lambda n: work_left[n])
    idle = [n for n in live if work_left[n] == 0.0]
    if idle:
        # The fastest idle node; among equally fast ones the lowest index.
        return lowest_argmin(idle, lambda n: -capacities[n])
    return lowest_argmin(live, lambda n: work_left[n] * weight[n])


@st.composite
def cluster_states(draw, *, require_live=True):
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    num_classes = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(st.lists(capacity_values, min_size=num_nodes, max_size=num_nodes))
    changed = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=num_nodes - 1), capacity_values, max_size=3
        )
    )
    # Small count ranges make equal keys (ties) common.
    pending = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=num_classes,
                max_size=num_classes,
            ),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    work_left = draw(
        st.lists(
            st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 50.0)),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    live = draw(
        st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes).filter(
            lambda mask: any(mask) or not require_live
        )
    )
    return capacities, changed, pending, work_left, live


def build(name, state):
    """A bound cluster in the drawn state, through the fleet event path."""
    capacities, changed, pending, work_left, live = state
    classes = make_classes(Deterministic(1.0), 0.5, tuple(range(1, len(pending[0]) + 1)))
    cluster = ClusterServerModel(
        capacities,
        dispatch=build_dispatch_policy(name),
    )
    cluster.bind(SimulationEngine(), classes)
    for node, cap in sorted(changed.items()):
        cluster.apply_fleet_event(FleetEvent(0.0, "set_capacity", node, cap))
    for node, is_live in enumerate(live):
        if not is_live:
            cluster.apply_fleet_event(FleetEvent(0.0, "leave", node))
    # Fill the shared tables the cluster's own bookkeeping writes; the
    # choosers read them live.
    for node, row in enumerate(pending):
        cluster.pending_table[node][:] = row
    cluster.work_left_table[:] = work_left
    effective = [changed[node] if node in changed else cap for node, cap in enumerate(capacities)]
    return cluster, [1.0 if cap is None else cap for cap in effective]


@pytest.mark.parametrize("name", BACKLOG_POLICIES)
@settings(max_examples=80, deadline=None)
@given(state=cluster_states(), data=st.data())
def test_chooser_matches_brute_force_oracle(name, state, data):
    cluster, capacities = build(name, state)
    _, _, pending, work_left, live_mask = state
    live = [node for node, is_live in enumerate(live_mask) if is_live]
    assert list(cluster.live_nodes) == live
    choose = cluster.dispatch.chooser()
    for class_index in range(cluster.num_classes):
        expected = oracle(name, live, class_index, pending, work_left, capacities)
        rid = cluster.ledger.append(class_index, 0.0, 1.0)
        assert choose(rid, class_index) == expected
        assert cluster.dispatch.select_node(rid, class_index) == expected
        assert cluster.is_live(expected)
    # The chooser reads the tables live: a fresh backlog on the chosen node
    # moves the next decision exactly as it moves the oracle's.
    class_index = data.draw(st.integers(min_value=0, max_value=cluster.num_classes - 1))
    node = oracle(name, live, class_index, pending, work_left, capacities)
    pending[node][class_index] += 3
    work_left[node] += 2.0
    cluster.pending_table[node][class_index] += 3
    cluster.work_left_table[node] += 2.0
    rid = cluster.ledger.append(class_index, 0.0, 1.0)
    assert choose(rid, class_index) == oracle(
        name, live, class_index, pending, work_left, capacities
    )


@pytest.mark.parametrize("name", BACKLOG_POLICIES)
@settings(max_examples=20, deadline=None)
@given(state=cluster_states(require_live=False))
def test_empty_live_set_raises_cluster_drained(name, state):
    capacities, changed, pending, work_left, _ = state
    cluster, _ = build(name, (capacities, changed, pending, work_left, [False] * len(pending)))
    rid = cluster.ledger.append(0, 0.0, 1.0)
    with pytest.raises(ClusterDrainedError):
        cluster.dispatch.chooser()(rid, 0)
    with pytest.raises(ClusterDrainedError):
        cluster.dispatch.select_node(rid, 0)
    # A join rebuilds the chooser over the new live set.
    cluster.apply_fleet_event(FleetEvent(0.0, "join", len(pending) - 1))
    assert cluster.dispatch.chooser()(rid, 0) == len(pending) - 1


def test_oracle_tie_and_idle_rules():
    """The oracle's own rules on hand-checked states."""
    pending = [[1], [0], [0]]
    assert oracle("jsq", [0, 1, 2], 0, pending, [0.0] * 3, [1.0] * 3) == 1
    assert oracle("weighted_jsq", [0, 2], 0, [[2], [0], [1]], [0.0] * 3, [2.0, 1.0, 1.0]) == 0
    assert oracle("least_work", [1, 2], 0, pending, [0.0, 3.0, 3.0], [1.0] * 3) == 1
    caps = [1.0, 4.0, 4.0]
    assert oracle("fastest_available", [0, 1, 2], 0, pending, [0.0, 0.0, 0.0], caps) == 1
    assert oracle("fastest_available", [0, 1, 2], 0, pending, [0.0, 1.0, 0.0], caps) == 2
    assert oracle("fastest_available", [0, 1], 0, pending, [2.0, 4.0, 0.0], caps) == 1
