"""The quota-reserve :class:`~repro.cluster.AdmissionController` and the
``ADMISSION_POLICIES`` registry / :func:`~repro.cluster.build_admission`
factory.

The controller's contract has three load-bearing parts, each pinned here:

* the **ladder** — quota reserve, then shared pool (degrading under
  pressure), then shed — with cumulative add-then-test accounting;
* the **scalar/vectorised equivalence** — :meth:`decide_block` must replay
  the scalar :meth:`decide` fold decision-for-decision and bit-for-bit in
  its float accumulators (hypothesis drives random blocks against the
  scalar oracle);
* the **budget conservation** — reserves + pool always partition the
  window budget according to ``quota_shares`` (hypothesis, over random
  fleet states including drained nodes).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ADMISSION_POLICIES,
    AdmissionController,
    build_admission,
)
from repro.core import AdmissionDecision, WindowObservation
from repro.core.admission import (
    AlwaysAdmit,
    LoadThresholdAdmission,
    QueueLengthAdmission,
)
from repro.errors import ParameterError
from repro.validation import parse_policy_args

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


class StubFleet:
    """The server surface the controller budgets from: live capacity + work."""

    def __init__(self, capacities, work=None, live=None):
        self._capacities = tuple(capacities)
        self.num_nodes = len(self._capacities)
        self._work = tuple(work) if work is not None else (0.0,) * self.num_nodes
        self.live_nodes = (
            tuple(range(self.num_nodes)) if live is None else tuple(live)
        )

    def node_capacity(self, node):
        return self._capacities[node]

    def work_left(self, node):
        return self._work[node]

    def backlogs(self):
        return (0, 0)


def boundary(server, window=10.0, *, time=0.0):
    """The boundary observation of ``server``, through the one fleet reader."""
    return WindowObservation.capture(
        server,
        time=time,
        window=window,
        arrivals=(0, 0),
        work=(0.0, 0.0),
        slowdowns=(math.nan, math.nan),
        rates=(0.5, 0.5),
        estimated_loads=(0.0, 0.0),
    )


def snapshot(time=0.0, backlogs=(0, 0), loads=(0.0, 0.0)):
    """A decision-time observation (the quota ladder reads none of it)."""
    return boundary(StubFleet((1.0,)), time=time)._replace(backlogs=backlogs, estimated_loads=loads)


def budgeted(controller, *, capacities=(2.0, 1.0), work=(), live=None, window=10.0, time=0.0):
    """Run one observe_window so the controller has a live budget."""
    fleet = StubFleet(
        capacities, work=work or None, live=live
    )
    controller.observe_window(boundary(fleet, window, time=time))
    return controller


class TestLadder:
    def test_accepts_within_reserve(self):
        ctrl = budgeted(AdmissionController((0.5, 0.5), target_utilisation=1.0))
        # Budget = 3.0 capacity * 10 window = 30; reserve 15 per class.
        assert ctrl.decide(0, 10.0, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.decide(0, 5.0, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.accepted == [2, 0]

    def test_reserve_overflow_drains_pool_then_sheds(self):
        ctrl = budgeted(AdmissionController((0.25, 0.25), target_utilisation=1.0))
        # Reserve 7.5 per class, pool 15.  Low EWMA util => pool ACCEPTs.
        assert ctrl.decide(0, 7.5, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.decide(0, 14.0, snapshot()) is AdmissionDecision.ACCEPT  # pool
        assert ctrl.decide(0, 2.0, snapshot()) is AdmissionDecision.SHED  # pool full
        assert ctrl.rejected == [1, 0]
        # The other class's reserve is untouched by the pool traffic.
        assert ctrl.decide(1, 7.0, snapshot()) is AdmissionDecision.ACCEPT

    def test_charged_even_when_shed(self):
        """Add-then-test: a shed arrival still consumed reserve and pool."""
        ctrl = budgeted(AdmissionController((0.1, 0.1), target_utilisation=1.0))
        # Reserve 3 per class, pool 24.
        big = 30.0
        assert ctrl.decide(0, big, snapshot()) is AdmissionDecision.SHED
        # The oversized request was charged to its reserve AND (on overflow)
        # to the pool even though it was shed — so a tiny follow-up finds
        # both exhausted and is shed too.  That monotone cumulative demand
        # is what makes the vectorised block path exact.
        assert float(ctrl._reserve_used[0]) == big
        assert ctrl._pool_used == big
        assert ctrl.decide(0, 0.5, snapshot()) is AdmissionDecision.SHED

    def test_degrades_under_pressure(self):
        ctrl = AdmissionController(
            (0.25, 0.25), target_utilisation=1.0, degrade_threshold=0.0, shed_threshold=2.0
        )
        budgeted(ctrl)
        # degrade_threshold 0 puts the pool permanently in the degrade band;
        # class 0 overflow degrades, the lowest class is accepted as-is
        # (reserve 7.5 per class, pool 15: 8 + 6 both fit the pool).
        assert ctrl.decide(0, 8.0, snapshot()) is AdmissionDecision.DEGRADE
        assert ctrl.decide(1, 6.0, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.degraded == [1, 0]
        assert ctrl.degrade_target(0) == 1

    def test_hard_overload_sheds_without_touching_pool(self):
        ctrl = AdmissionController(
            (0.25, 0.25), target_utilisation=1.0, degrade_threshold=0.0, shed_threshold=0.0
        )
        budgeted(ctrl)
        assert ctrl.decide(0, 8.0, snapshot()) is AdmissionDecision.SHED
        assert ctrl._pool_used == 0.0

    def test_unknown_class_rejected(self):
        ctrl = budgeted(AdmissionController((0.5, 0.5)))
        with pytest.raises(ParameterError, match="no quota share"):
            ctrl.decide(2, 1.0, snapshot())
        with pytest.raises(ParameterError, match="no quota share"):
            ctrl.decide_block(
                np.array([0, 2]), np.array([1.0, 1.0]), np.zeros(2), snapshot()
            )

    @pytest.mark.parametrize(
        ("classes", "offending"), [([0, -1, 1], -1), ([0, 1, 2], 2), ([1, 3, -2], 3)]
    )
    def test_block_names_its_first_out_of_range_class(self, classes, offending):
        ctrl = budgeted(AdmissionController((0.5, 0.5)))
        with pytest.raises(ParameterError, match=rf"^class {offending} has no quota share"):
            ctrl.decide_block(
                np.array(classes), np.ones(len(classes)), np.zeros(len(classes)), snapshot()
            )
        # Nothing was charged or counted.
        assert ctrl._reserve_used.tolist() == [0.0, 0.0]
        assert ctrl.accepted == ctrl.degraded == ctrl.rejected == [0, 0]

    def test_wait_hint_without_demand_history_points_at_next_boundary(self):
        ctrl = AdmissionController((0.5, 0.5))
        assert ctrl.wait_hint(0, 3.0) is None  # never budgeted
        budgeted(ctrl, time=100.0, window=10.0)
        # No demand history yet: the projection finds headroom in the very
        # first window, so the hint degenerates to the next boundary.
        assert ctrl.wait_hint(0, 104.0) == pytest.approx(6.0)
        assert ctrl.wait_hint(0, 200.0) == 0.0

    def test_drain_factor_pays_down_backlog(self):
        lazy = budgeted(
            AdmissionController((0.5, 0.5), drain_factor=0.0, ewma_alpha=1.0),
            work=(100.0, 0.0),
        )
        strict = budgeted(
            AdmissionController((0.5, 0.5), drain_factor=0.5, ewma_alpha=1.0),
            work=(100.0, 0.0),
        )
        assert float(strict._reserve.sum() + strict._pool) < float(
            lazy._reserve.sum() + lazy._pool
        )

    def test_dead_nodes_shrink_the_budget(self):
        full = budgeted(AdmissionController((0.5, 0.5)))
        half = budgeted(AdmissionController((0.5, 0.5)), live=(1,))
        assert float(half._reserve.sum() + half._pool) < float(
            full._reserve.sum() + full._pool
        )

    def test_utilisation_ewma_tracks_admitted_work(self):
        ctrl = budgeted(
            AdmissionController((0.5, 0.5), target_utilisation=1.0, ewma_alpha=1.0)
        )
        assert ctrl.utilisation == 0.0
        ctrl.decide(0, 15.0, snapshot())
        budgeted(ctrl, time=10.0)  # next boundary: sample = 15 / (3 * 10)
        assert ctrl.utilisation == pytest.approx(0.5)

    def test_reset_clears_everything(self):
        ctrl = budgeted(AdmissionController((0.5, 0.5)))
        ctrl.decide(0, 5.0, snapshot())
        ctrl.reset()
        assert ctrl.accepted == [0, 0]
        assert ctrl.utilisation == 0.0
        assert float(ctrl._reserve.sum()) == 0.0
        assert ctrl.wait_hint(0, 1.0) is None


class TestWaitHintProjection:
    """Regression: the hint must project the EWMA-shrunk budget forward.

    The old implementation always pointed at the next window boundary,
    telling a shed client to retry into a window whose quota was already
    known to be insufficient — under sustained overload that is an
    unconditional retry storm.  The projection walks the budget recurrence
    (backlog drains at live capacity, demand keeps arriving at its EWMA
    rate) and hints the first window with expected per-class headroom, or
    ``None`` when no such window exists within ``hint_horizon``.
    """

    def drive(self, ctrl, demands, windows, *, capacities=(2.0, 1.0), window=10.0):
        """Run ``windows`` full windows of per-class ``demands`` work each."""
        deliverable = sum(capacities) * window
        backlog = 0.0
        fleet = StubFleet(capacities, work=(backlog, 0.0))
        ctrl.observe_window(boundary(fleet, window, time=0.0))
        for w in range(windows):
            for c, demand in enumerate(demands):
                ctrl.decide(c, demand, snapshot())
            backlog = max(backlog + sum(demands) - deliverable, 0.0)
            fleet = StubFleet(capacities, work=(backlog, 0.0))
            ctrl.observe_window(boundary(fleet, window, time=(w + 1) * window))
        return ctrl

    def test_sustained_overload_returns_none(self):
        # Load 1.2 on a 3-capacity fleet, split evenly: 18 work per class
        # per 10-wide window against a 30 deliverable.  Each class's
        # projected reserve tops out at 0.45 * 0.95 * 30 = 12.825 < 18 in
        # *every* future window, so there is no boundary worth retrying at.
        ctrl = AdmissionController((0.45, 0.45), ewma_alpha=1.0)
        self.drive(ctrl, demands=(18.0, 18.0), windows=4)
        assert ctrl.wait_hint(0, 42.0) is None
        assert ctrl.wait_hint(1, 42.0) is None

    def test_overloaded_class_gets_none_while_light_class_gets_a_hint(self):
        # Same fleet, but only class 0 is overloaded: its projection never
        # clears, while class 1's small demand fits its reserve at the very
        # next boundary.  The hint is per class, not global.
        ctrl = AdmissionController((0.45, 0.45), ewma_alpha=1.0)
        self.drive(ctrl, demands=(30.0, 2.0), windows=4)
        assert ctrl.wait_hint(0, 42.0) is None
        assert ctrl.wait_hint(1, 42.0) == pytest.approx(8.0)

    def test_transient_backlog_hints_a_later_window(self):
        # Demand 10 per class fits the 15-per-class reserve in a clear
        # window, but a 25-work backlog eats the next window's budget
        # (30 - 25 = 5, reserve 2.5 < 10).  The backlog drains within one
        # window, so the hint skips exactly one boundary.
        ctrl = AdmissionController(
            (0.5, 0.5), target_utilisation=1.0, drain_factor=1.0, ewma_alpha=1.0
        )
        fleet = StubFleet((2.0, 1.0), work=(0.0, 0.0))
        ctrl.observe_window(boundary(fleet, 10.0, time=0.0))
        ctrl.decide(0, 10.0, snapshot())
        ctrl.decide(1, 10.0, snapshot())
        fleet = StubFleet((2.0, 1.0), work=(25.0, 0.0))
        ctrl.observe_window(boundary(fleet, 10.0, time=10.0))
        # window_end = 20; k=0 has no headroom, k=1 does: hint lands on the
        # boundary after next.
        assert ctrl.wait_hint(0, 12.0) == pytest.approx(18.0)

    def test_hint_horizon_bounds_the_projection(self):
        # A huge backlog clears eventually, but not within a 2-window
        # horizon — the bounded projection gives up with None rather than
        # scanning forever.
        patient = AdmissionController(
            (0.5, 0.5), target_utilisation=1.0, drain_factor=1.0, ewma_alpha=1.0
        )
        curt = AdmissionController(
            (0.5, 0.5),
            target_utilisation=1.0,
            drain_factor=1.0,
            ewma_alpha=1.0,
            hint_horizon=2,
        )
        for ctrl in (patient, curt):
            fleet = StubFleet((2.0, 1.0), work=(0.0, 0.0))
            ctrl.observe_window(boundary(fleet, 10.0, time=0.0))
            ctrl.decide(0, 10.0, snapshot())
            ctrl.decide(1, 10.0, snapshot())
            fleet = StubFleet((2.0, 1.0), work=(100.0, 0.0))
            ctrl.observe_window(boundary(fleet, 10.0, time=10.0))
        assert patient.wait_hint(0, 12.0) is not None
        assert curt.wait_hint(0, 12.0) is None


class TestValidation:
    def test_share_sum_capped(self):
        with pytest.raises(ParameterError, match="sum to <= 1"):
            AdmissionController((0.7, 0.7))

    def test_empty_shares_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            AdmissionController(())

    def test_scalar_share_becomes_one_class(self):
        assert AdmissionController(0.8).num_classes == 1

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ParameterError, match="must not exceed"):
            AdmissionController((0.5,), degrade_threshold=1.2, shed_threshold=1.0)

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            AdmissionController((0.5,), ewma_alpha=0.0)


# ---------------------------------------------------------------------- #
# Hypothesis: scalar oracle equivalence and budget conservation
# ---------------------------------------------------------------------- #
@st.composite
def controller_and_block(draw):
    num_classes = draw(st.integers(min_value=1, max_value=3))
    shares = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0 / num_classes),
            min_size=num_classes,
            max_size=num_classes,
        )
    )
    degrade = draw(st.floats(min_value=0.0, max_value=1.0))
    shed = draw(st.floats(min_value=degrade, max_value=1.5))
    kwargs = dict(
        target_utilisation=draw(st.floats(min_value=0.1, max_value=1.5)),
        degrade_threshold=degrade,
        shed_threshold=shed,
        ewma_alpha=draw(st.floats(min_value=0.05, max_value=1.0)),
        drain_factor=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    k = draw(st.integers(min_value=0, max_value=40))
    classes = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_classes - 1), min_size=k, max_size=k
        )
    )
    sizes = draw(
        st.lists(st.floats(min_value=0.01, max_value=30.0), min_size=k, max_size=k)
    )
    capacities = draw(
        st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=3)
    )
    work = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=len(capacities),
            max_size=len(capacities),
        )
    )
    live = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(capacities) - 1), min_size=1
        )
    )
    # A warmup window of pre-admitted work seeds a non-trivial EWMA state.
    warm = draw(
        st.lists(st.floats(min_value=0.01, max_value=30.0), min_size=0, max_size=10)
    )
    return tuple(shares), kwargs, classes, sizes, capacities, work, sorted(live), warm


def _seeded_pair(example):
    """Two identically-budgeted controllers (one for each decision path)."""
    shares, kwargs, classes, sizes, capacities, work, live, warm = example
    pair = []
    for _ in range(2):
        ctrl = AdmissionController(shares, **kwargs)
        fleet = StubFleet(capacities, work=work, live=live)
        ctrl.observe_window(boundary(fleet, 10.0, time=0.0))
        for size in warm:
            ctrl.decide(0, size, snapshot())
        ctrl.observe_window(boundary(fleet, 10.0, time=10.0))
        pair.append(ctrl)
    return pair


@given(controller_and_block())
@settings(max_examples=120, deadline=None)
def test_decide_block_matches_scalar_oracle(example):
    _, _, classes, sizes, *_ = example
    vector, scalar = _seeded_pair(example)
    block = vector.decide_block(
        np.asarray(classes, dtype=np.int64),
        np.asarray(sizes, dtype=np.float64),
        np.zeros(len(classes)),
        snapshot(),
    )
    replay = [int(scalar.decide(c, s, snapshot())) for c, s in zip(classes, sizes)]
    assert block.tolist() == replay
    # Bit-identical accumulators, not approximately equal: the vectorised
    # fold must associate exactly like the scalar one.
    assert vector._reserve_used.tobytes() == scalar._reserve_used.tobytes()
    assert vector._pool_used == scalar._pool_used
    assert vector._admitted_work == scalar._admitted_work
    assert vector.accepted == scalar.accepted
    assert vector.degraded == scalar.degraded
    assert vector.rejected == scalar.rejected


@given(controller_and_block())
@settings(max_examples=120, deadline=None)
def test_budget_partition_conserved(example):
    shares, kwargs, _, _, capacities, work, live, _ = example
    ctrl = AdmissionController(shares, **kwargs)
    fleet = StubFleet(capacities, work=work, live=live)
    ctrl.observe_window(boundary(fleet, 10.0))
    budget = float(ctrl._reserve.sum() + ctrl._pool)
    live_capacity = sum(capacities[i] for i in live)
    expected = max(
        kwargs["target_utilisation"] * live_capacity * 10.0
        - kwargs["drain_factor"] * ctrl._backlog_ewma,
        0.0,
    )
    assert budget == pytest.approx(expected, rel=1e-9, abs=1e-12)
    # Reserves split the budget exactly by quota share; the pool is the
    # unreserved remainder — nothing is lost, nothing counted twice.
    for c, share in enumerate(shares):
        assert float(ctrl._reserve[c]) == pytest.approx(
            expected * share, rel=1e-9, abs=1e-12
        )
        assert float(ctrl._reserve[c]) >= 0.0
    assert float(ctrl._pool) == pytest.approx(
        expected * (1.0 - sum(shares)), rel=1e-9, abs=1e-9
    )
    assert float(ctrl._pool) >= 0.0


# ---------------------------------------------------------------------- #
# Registry + factory
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_registry_names(self):
        assert set(ADMISSION_POLICIES) == {
            "always",
            "load_threshold",
            "queue_length",
            "quota",
        }

    def test_builds_each_policy(self):
        assert isinstance(build_admission("always"), AlwaysAdmit)
        assert isinstance(
            build_admission("load_threshold", ("thresholds=0.5,0.9",)),
            LoadThresholdAdmission,
        )
        assert isinstance(
            build_admission("queue_length", ("limits=5,10",)), QueueLengthAdmission
        )
        assert isinstance(
            build_admission("quota", ("quota_shares=0.3,0.3", "drain_factor=0.2")),
            AdmissionController,
        )

    def test_scalar_token_builds_one_class_policy(self):
        policy = build_admission("load_threshold", ("thresholds=0.8",))
        assert policy.thresholds == (0.8,)

    def test_overrides_win_over_tokens(self):
        policy = build_admission(
            "quota", ("target_utilisation=0.5",), target_utilisation=0.7
        )
        assert policy.target_utilisation == 0.7

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown admission policy"):
            build_admission("nope")

    def test_bad_kwargs_wrapped(self):
        with pytest.raises(ParameterError, match="rejected arguments"):
            build_admission("always", ("bogus=1",))

    def test_parse_rejects_malformed_tokens(self):
        with pytest.raises(ParameterError, match="expected key=value"):
            parse_policy_args(("thresholds",))
        with pytest.raises(ParameterError, match="must be numeric"):
            parse_policy_args(("thresholds=a,b",))

    def test_parse_shapes(self):
        args = parse_policy_args(("a=1", "b=1,2"))
        assert args == {"a": 1.0, "b": (1.0, 2.0)}


class TestServerSurfaces:
    """Budgeting against servers that are not clusters: ``capture`` counts
    one live node of the declared capacity with no outstanding work."""

    class _PlainServer:
        """No live_nodes, no work_left — just a declared capacity."""

        def __init__(self, capacity):
            self.capacity = capacity

        def backlogs(self):
            return (3, 1)

    def test_capture_counts_one_live_node(self):
        obs = boundary(self._PlainServer(3.0), 10.0)
        assert obs.capacities == (3.0,)
        assert obs.live_nodes == (0,)
        assert obs.live_capacity == 3.0
        assert obs.backlog_work == 0.0
        assert obs.backlogs == (3, 1)

    def test_single_server_budgets_from_capacity(self):
        ctrl = AdmissionController((0.5, 0.5), target_utilisation=1.0)
        ctrl.observe_window(boundary(self._PlainServer(3.0), 10.0))
        # Budget = 3.0 * 10 = 30, same as the 3-capacity fleet.
        assert ctrl.decide(0, 15.0, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.decide(0, 0.1, snapshot()) is not AdmissionDecision.ACCEPT

    def test_undeclared_capacity_defaults_to_unit(self):
        obs = boundary(self._PlainServer(None), 10.0)
        assert obs.capacities == (1.0,)
        ctrl = AdmissionController((0.5, 0.5), target_utilisation=1.0)
        ctrl.observe_window(obs)
        # Budget = 1.0 * 10; reserve 5 per class.
        assert ctrl.decide(0, 5.0, snapshot()) is AdmissionDecision.ACCEPT
        assert ctrl.decide(1, 11.0, snapshot()) is AdmissionDecision.SHED

    def test_missing_work_left_means_no_backlog_penalty(self):
        eager = AdmissionController((0.5, 0.5), target_utilisation=1.0, drain_factor=1.0)
        eager.observe_window(boundary(self._PlainServer(3.0), 10.0))
        fleet_free = AdmissionController((0.5, 0.5), target_utilisation=1.0, drain_factor=1.0)
        budgeted(fleet_free, capacities=(2.0, 1.0), window=10.0)
        # A capacity-only server has no backlog surface, so its budget
        # matches a work-free fleet of the same total capacity exactly.
        assert eager._reserve.tolist() == fleet_free._reserve.tolist()
        assert eager._pool == fleet_free._pool


class TestHardOverloadBlock:
    def test_block_overflow_sheds_without_touching_pool(self):
        ctrl = budgeted(
            AdmissionController(
                (0.05, 0.05),
                target_utilisation=1.0,
                degrade_threshold=0.0,
                shed_threshold=0.0,
            )
        )
        # Reserve 1.5 per class; util 0 >= shed_threshold 0, so overflow
        # takes the hard-overload branch and never charges the pool.
        block = ctrl.decide_block(
            np.array([0, 0, 1]),
            np.array([1.0, 1.0, 5.0]),
            np.zeros(3),
            snapshot(),
        )
        assert block.tolist() == [
            int(AdmissionDecision.ACCEPT),
            int(AdmissionDecision.SHED),
            int(AdmissionDecision.SHED),
        ]
        assert ctrl._pool_used == 0.0
        assert ctrl.rejected == [1, 1]
