"""Autoscaler policies: sizing rules, cooldown/warm-up mechanics, determinism.

Three layers:

* pure-policy unit tests against a stub fleet — cooldown edges, warm-up
  quantisation, bounds clamping, node selection order, the sizing maths of
  each registry policy, and the registry/argument-parsing surface;
* hypothesis properties — the emitted fleet-event sequence is a pure
  function of the observed boundary series (two fresh instances fed the
  same series agree event-for-event), and emitted events are always legal
  (joins target spares, leaves target live nodes, never a same-boundary
  conflict on one node);
* integration determinism — a real clustered scenario under a moving load
  produces bit-identical autoscale event lists, fleet timelines and
  slowdowns against the per-event reference (:mod:`tests.reference`) and
  serial vs ``workers=2``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AUTOSCALERS,
    AutoscalerPolicy,
    FleetEvent,
    FleetSchedule,
    PredictiveEwma,
    StepScaling,
    TargetTracking,
    build_autoscaler,
    make_cluster,
    node_hours,
    parse_autoscaler_args,
)
from repro.core import PsdSpec, WindowObservation
from repro.distributions import Deterministic
from repro.errors import ParameterError, SimulationError
from repro.experiments import AutoscaleBuild
from repro.simulation import MeasurementConfig, ReplicationRunner, Scenario, SimulationEngine
from repro.workload import DiurnalPattern, FlashCrowd
from tests.conftest import make_classes
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

WINDOW = 10.0


class StubFleet:
    """The slice of ``ClusterServerModel`` an autoscaler observes.

    ``apply`` replays emitted events onto the stub's own state, so a test
    can drive ``observe_boundary`` across many boundaries without a real
    cluster.
    """

    def __init__(self, num_nodes=4, capacities=None, live=None):
        self.num_nodes = num_nodes
        self.capacities = tuple(capacities or (1.0,) * num_nodes)
        self._live = set(range(num_nodes) if live is None else live)
        self.work = [0.0] * num_nodes

    @property
    def live_nodes(self):
        return tuple(sorted(self._live))

    def node_capacity(self, node):
        return self.capacities[node]

    def work_left(self, node):
        return self.work[node]

    def backlogs(self):
        return (0, 0)

    def apply(self, events):
        for event in events:
            if event.action == "join":
                self._live.add(event.node)
            elif event.action == "leave":
                self._live.discard(event.node)


class FixedDesired(AutoscalerPolicy):
    """A policy whose sizing rule is a scripted sequence (unit-test probe)."""

    def __init__(self, sizes, **bounds):
        self.sizes = list(sizes)
        self._step = 0
        super().__init__(**bounds)

    def desired_fleet_size(self, obs):
        size = self.sizes[min(self._step, len(self.sizes) - 1)]
        self._step += 1
        return size


def capture(fleet, time, *, work=(0.0, 0.0), arrivals=(1, 1), rates=(0.5, 0.5)):
    """The boundary observation of ``fleet``, through the one fleet reader."""
    return WindowObservation.capture(
        fleet,
        time=time,
        window=WINDOW,
        arrivals=arrivals,
        work=work,
        slowdowns=(math.nan, math.nan),
        rates=rates,
        estimated_loads=(0.0, 0.0),
    )


def step(policy, fleet, time, **window):
    """One boundary: observe, apply the emitted events to the stub."""
    events = policy.observe_boundary(capture(fleet, time, **window))
    fleet.apply(events)
    return events


def obs(
    *,
    time=100.0,
    window=WINDOW,
    capacities=(1.0, 1.0, 1.0, 1.0),
    live=(0, 1),
    work=(4.0, 4.0),
    backlog=0.0,
    arrivals=(4, 4),
    rates=(0.5, 0.5),
):
    return WindowObservation(
        time=time,
        window=window,
        arrivals=tuple(arrivals),
        work=tuple(work),
        slowdowns=(math.nan, math.nan),
        rates=tuple(rates),
        estimated_loads=(0.0, 0.0),
        backlogs=(0, 0),
        capacities=tuple(capacities),
        live_nodes=tuple(live),
        backlog_work=backlog,
    )


class TestObservation:
    def test_capture_reads_the_stub_surface(self):
        fleet = StubFleet(3, capacities=(2.0, 1.0, 1.0), live=(0, 2))
        fleet.work = [0.5, 0.0, 1.5]
        snap = capture(fleet, 50.0, arrivals=(3, 1), work=(6.0, 2.0), rates=(0.7, 0.3))
        assert snap.live_nodes == (0, 2)
        assert snap.capacities == (2.0, 1.0, 1.0)
        assert snap.live_capacity == 3.0
        assert snap.backlog_work == 2.0
        assert snap.offered_rate == pytest.approx(0.8)
        assert snap.utilisation == pytest.approx(0.8 / 3.0)
        assert snap.backlog_windows == pytest.approx(2.0 / 30.0)

    def test_draining_node_work_counts_but_not_its_capacity(self):
        cluster = make_cluster(2, "round_robin", capacities=(2.0, 1.0))
        engine = SimulationEngine()
        cluster.bind(engine, make_classes(Deterministic(1.0), 0.5, (1.0, 2.0)))
        # Rates stay zero, so every dispatched request stays pending.
        rids = [cluster.ledger.append(c, 0.0, size) for c, size in ((0, 1.0), (1, 2.0))]
        cluster.submit_batch(np.asarray(rids, dtype=np.int64))
        cluster.apply_fleet_event(FleetEvent(time=0.0, action="leave", node=1))
        assert cluster.node_state(1) == "draining" and cluster.work_left(1) > 0.0
        snap = capture(cluster, 0.0)
        assert snap.live_nodes == (0,)
        assert snap.capacities == (2.0, 1.0)
        assert snap.live_capacity == 2.0
        assert snap.backlog_work == 3.0

    def test_outage_reports_infinite_utilisation(self):
        snap = obs(live=(), work=(1.0, 1.0), backlog=5.0)
        assert snap.live_capacity == 0.0
        assert snap.utilisation == math.inf
        assert snap.backlog_windows == math.inf


class TestBaseMechanics:
    def test_scale_out_joins_lowest_index_spares(self):
        fleet = StubFleet(4, live=(0, 2))
        policy = FixedDesired([4])
        events = step(policy, fleet, 10.0)
        assert [(e.action, e.node) for e in events] == [("join", 1), ("join", 3)]
        assert fleet.live_nodes == (0, 1, 2, 3)

    def test_scale_in_retires_highest_index_live(self):
        fleet = StubFleet(4)
        policy = FixedDesired([2])
        events = step(policy, fleet, 10.0)
        assert [(e.action, e.node) for e in events] == [("leave", 3), ("leave", 2)]
        assert fleet.live_nodes == (0, 1)

    def test_bounds_clamp_desired_size(self):
        fleet = StubFleet(4, live=(0, 1))
        policy = FixedDesired([0, 99], min_nodes=2, max_nodes=3)
        assert step(policy, fleet, 10.0) == ()  # 0 clamps to min 2 == current
        events = step(policy, fleet, 20.0)  # 99 clamps to max 3
        assert [(e.action, e.node) for e in events] == [("join", 2)]

    def test_max_nodes_also_clamped_to_physical_fleet(self):
        fleet = StubFleet(2)
        policy = FixedDesired([10], max_nodes=10)
        assert step(policy, fleet, 10.0) == ()

    def test_scale_out_cooldown_suppresses_then_edge_fires(self):
        fleet = StubFleet(4, live=(0,))
        policy = FixedDesired([2, 3, 3], scale_out_cooldown=20.0)
        assert len(step(policy, fleet, 10.0)) == 1  # first decision always fires
        assert step(policy, fleet, 20.0) == ()  # 10 < 20: suppressed
        assert len(step(policy, fleet, 30.0)) == 1  # exactly 20 later: fires

    def test_directions_have_independent_cooldowns(self):
        fleet = StubFleet(4, live=(0, 1))
        policy = FixedDesired([3, 1], scale_out_cooldown=100.0, scale_in_cooldown=100.0)
        assert step(policy, fleet, 10.0)[0].action == "join"
        # A scale-in right after a scale-out is legal: separate clocks.
        assert step(policy, fleet, 20.0)[0].action == "leave"

    def test_warmup_lag_quantises_to_whole_boundaries(self):
        fleet = StubFleet(2, live=(0,))
        policy = FixedDesired([2], warmup_lag=15.0)  # ceil(15/10) = 2 boundaries
        assert step(policy, fleet, 10.0) == ()  # reserved, not yet joined
        assert step(policy, fleet, 20.0) == ()
        events = step(policy, fleet, 30.0)
        assert [(e.action, e.node, e.time) for e in events] == [("join", 1, 30.0)]

    def test_pending_joins_count_toward_fleet_size(self):
        fleet = StubFleet(4, live=(0,))
        # Wants 3 at every boundary; the two pending joins must not be
        # re-ordered while they warm up.
        policy = FixedDesired([3], warmup_lag=25.0)
        assert step(policy, fleet, 10.0) == ()
        assert step(policy, fleet, 20.0) == ()
        assert step(policy, fleet, 30.0) == ()
        events = step(policy, fleet, 40.0)
        assert sorted((e.action, e.node) for e in events) == [("join", 1), ("join", 2)]
        assert fleet.live_nodes == (0, 1, 2)
        # No further orders: the desired size is already met.
        assert step(policy, fleet, 50.0) == ()

    def test_zero_warmup_joins_at_the_decision_boundary(self):
        fleet = StubFleet(2, live=(0,))
        policy = FixedDesired([2])
        events = step(policy, fleet, 10.0)
        assert [(e.action, e.node, e.time) for e in events] == [("join", 1, 10.0)]

    def test_decision_log_records_desired_and_effective(self):
        fleet = StubFleet(4, live=(0, 1))
        policy = FixedDesired([3, 3])
        step(policy, fleet, 10.0)
        step(policy, fleet, 20.0)
        assert policy.decision_log == [(10.0, 3, 2), (20.0, 3, 3)]

    def test_reset_clears_cooldowns_and_pending(self):
        fleet = StubFleet(2, live=(0,))
        policy = FixedDesired([2, 2], scale_out_cooldown=1e9, warmup_lag=25.0)
        step(policy, fleet, 10.0)
        assert policy._pending_joins
        policy.reset()
        assert policy._pending_joins == []
        assert policy.decision_log == []
        assert policy._last_out == -math.inf

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            FixedDesired([1], min_nodes=0)
        with pytest.raises(ParameterError):
            FixedDesired([1], min_nodes=3, max_nodes=2)
        with pytest.raises(ParameterError):
            FixedDesired([1], warmup_lag=-1.0)


class TestTargetTracking:
    def test_sizes_smallest_capacity_prefix(self):
        policy = TargetTracking(target=0.8, drain_windows=2)
        # offered 0.8/window + backlog 4/(2*10) = 1.0 demand; /0.8 = 1.25
        # capacity needed -> two unit nodes.
        snap = obs(capacities=(1.0,) * 4, live=(0,), work=(4.0, 4.0), backlog=4.0)
        assert policy.desired_fleet_size(snap) == 2

    def test_hysteresis_dead_band_blocks_marginal_scale_in(self):
        policy = TargetTracking(target=0.8, hysteresis=0.25, drain_windows=2)
        # demand 0.62 -> raw need 1 node, but the hysteresis-inflated check
        # (0.62 / 0.6 > 1 node of capacity) keeps the second node.
        snap = obs(capacities=(1.0,) * 4, live=(0, 1), work=(3.1, 3.1), backlog=0.0)
        assert policy.desired_fleet_size(snap) == 2
        # Demand low enough that even the inflated check frees a node.
        snap = obs(capacities=(1.0,) * 4, live=(0, 1), work=(2.0, 2.0), backlog=0.0)
        assert policy.desired_fleet_size(snap) == 1

    def test_zero_demand_wants_zero_before_clamping(self):
        policy = TargetTracking()
        snap = obs(work=(0.0, 0.0), backlog=0.0)
        assert policy.desired_fleet_size(snap) == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            TargetTracking(target=0.0)
        with pytest.raises(ParameterError):
            TargetTracking(hysteresis=1.0)
        with pytest.raises(ParameterError):
            TargetTracking(drain_windows=0)


class TestStepScaling:
    def test_largest_matching_band_wins(self):
        policy = StepScaling(bands=((0.9, 1), (1.3, 2)), in_threshold=0.6)
        snap = obs(live=(0, 1), work=(10.0, 5.0), backlog=13.0)  # signal 1.4
        assert policy.desired_fleet_size(snap) == 4
        snap = obs(live=(0, 1), work=(10.0, 5.0), backlog=4.0)  # signal 0.95
        assert policy.desired_fleet_size(snap) == 3

    def test_below_in_threshold_retires_one_node(self):
        policy = StepScaling(bands=((0.9, 1),), in_threshold=0.6)
        snap = obs(live=(0, 1), work=(4.0, 4.0), backlog=0.0)  # signal 0.4
        assert policy.desired_fleet_size(snap) == 1

    def test_dead_band_holds_steady(self):
        policy = StepScaling(bands=((0.9, 1),), in_threshold=0.6)
        snap = obs(live=(0, 1), work=(7.0, 7.0), backlog=0.0)  # signal 0.7
        assert policy.desired_fleet_size(snap) == 2

    def test_outage_signal_is_infinite(self):
        policy = StepScaling(bands=((0.9, 1), (1.3, 2)))
        snap = obs(live=(), work=(1.0, 0.0), backlog=0.0)
        assert policy.desired_fleet_size(snap) == 2  # 0 live + biggest step

    def test_validation(self):
        with pytest.raises(ParameterError):
            StepScaling(bands=())
        with pytest.raises(ParameterError):
            StepScaling(bands=((0.9, 0),))
        with pytest.raises(ParameterError):
            StepScaling(bands=((0.5, 1),), in_threshold=0.5)
        with pytest.raises(ParameterError):
            StepScaling(bands=((0.9, 1, 2),))


class TestPredictiveEwma:
    def test_first_observation_seeds_the_level(self):
        policy = PredictiveEwma(alpha=0.5, beta=0.3, lead=0.0, target=1.0, drain_windows=2)
        snap = obs(capacities=(1.0,) * 4, live=(0, 1), work=(8.0, 8.0), backlog=0.0)
        assert policy.desired_fleet_size(snap) == 2  # level = demand = 1.6

    def test_trend_scales_ahead_of_a_ramp(self):
        policy = PredictiveEwma(alpha=1.0, beta=1.0, lead=2.0, target=1.0, drain_windows=2)
        low = obs(capacities=(1.0,) * 8, live=(0,), work=(5.0, 5.0), backlog=0.0)
        policy.desired_fleet_size(low)  # level 1.0, trend 0
        high = obs(capacities=(1.0,) * 8, live=(0, 1), work=(10.0, 10.0), backlog=0.0)
        # level -> 2.0, trend -> 1.0, forecast = 2 + 2*1 = 4 nodes.
        assert policy.desired_fleet_size(high) == 4

    def test_reset_clears_the_smoother(self):
        policy = PredictiveEwma()
        policy.desired_fleet_size(obs())
        assert policy._level is not None
        policy.reset()
        assert policy._level is None
        assert policy._trend == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            PredictiveEwma(alpha=0.0)
        with pytest.raises(ParameterError):
            PredictiveEwma(beta=1.5)
        with pytest.raises(ParameterError):
            PredictiveEwma(lead=-1.0)


class TestRegistryAndParsing:
    def test_registry_builds_every_policy(self):
        for name in AUTOSCALERS:
            policy = build_autoscaler(name)
            assert isinstance(policy, AutoscalerPolicy)

    def test_parse_scalar_tuple_and_bands(self):
        args = parse_autoscaler_args(
            ["target=0.8", "bands=0.9:1,1.3:2", "quota=1,2"]
        )
        assert args == {"target": 0.8, "bands": ((0.9, 1), (1.3, 2)), "quota": (1.0, 2.0)}

    def test_int_parameters_are_cast(self):
        policy = build_autoscaler(
            "target_tracking", ("min_nodes=2", "max_nodes=3", "drain_windows=4")
        )
        assert policy.min_nodes == 2
        assert policy.max_nodes == 3
        assert policy.drain_windows == 4

    def test_bad_tokens_and_unknown_names(self):
        with pytest.raises(ParameterError):
            parse_autoscaler_args(["target"])
        with pytest.raises(ParameterError):
            parse_autoscaler_args(["target=abc"])
        with pytest.raises(ParameterError):
            parse_autoscaler_args(["bands=0.9,1.3"])
        with pytest.raises(ParameterError):
            build_autoscaler("nope")
        with pytest.raises(ParameterError):
            build_autoscaler("step_scaling", ("target=0.8",))  # wrong keyword


class TestNodeHours:
    def test_integrates_live_and_draining_spans(self):
        timeline = [
            (0.0, ("live", "down"), (1.0, 1.0)),
            (40.0, ("live", "live"), (1.0, 1.0)),
            (60.0, ("draining", "live"), (1.0, 1.0)),
            (70.0, ("down", "live"), (1.0, 1.0)),
        ]
        # Node 0: live 0-60, draining 60-70 -> 70.  Node 1: live 40-100 -> 60.
        assert node_hours(timeline, horizon=100.0) == pytest.approx(130.0)
        # Draining excluded on request.
        assert node_hours(timeline, horizon=100.0, states=("live",)) == pytest.approx(120.0)


# ---------------------------------------------------------------------- #
# Hypothesis: decisions are a pure function of the boundary series
# ---------------------------------------------------------------------- #
demand_series = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False),  # window work, class 1
        st.floats(0.0, 30.0, allow_nan=False),  # window work, class 2
        st.floats(0.0, 40.0, allow_nan=False),  # backlog work
    ),
    min_size=3,
    max_size=25,
)
policy_params = st.fixed_dictionaries(
    {
        "scale_out_cooldown": st.sampled_from([0.0, 10.0, 25.0]),
        "scale_in_cooldown": st.sampled_from([0.0, 10.0, 25.0]),
        "warmup_lag": st.sampled_from([0.0, 10.0, 15.0, 30.0]),
        "min_nodes": st.integers(1, 2),
    }
)


def drive(policy, series, *, num_nodes=4):
    """Replay a boundary series against a fresh stub; collect all events."""
    fleet = StubFleet(num_nodes, capacities=(0.25,) * num_nodes, live=(0, 1))
    emitted = []
    for k, (work1, work2, backlog) in enumerate(series):
        fleet.work = [backlog / num_nodes] * num_nodes
        events = step(policy, fleet, (k + 1) * WINDOW, work=(work1, work2))
        emitted.extend(events)
    return emitted


class TestDeterminismProperties:
    @given(series=demand_series, params=policy_params, name=st.sampled_from(sorted(AUTOSCALERS)))
    @settings(max_examples=60, deadline=None)
    def test_identical_series_identical_events(self, series, params, name):
        first = drive(build_autoscaler(name, **params), series)
        second = drive(build_autoscaler(name, **params), series)
        assert first == second

    @given(series=demand_series, params=policy_params, name=st.sampled_from(sorted(AUTOSCALERS)))
    @settings(max_examples=60, deadline=None)
    def test_emitted_events_are_always_legal(self, series, params, name):
        policy = build_autoscaler(name, **params)
        fleet = StubFleet(4, capacities=(0.25,) * 4, live=(0, 1))
        for k, (work1, work2, backlog) in enumerate(series):
            fleet.work = [backlog / 4] * 4
            live_before = set(fleet.live_nodes)
            events = policy.observe_boundary(capture(fleet, (k + 1) * WINDOW, work=(work1, work2)))
            touched = set()
            for event in events:
                assert event.time == (k + 1) * WINDOW
                assert event.node not in touched  # never two events per node
                touched.add(event.node)
                if event.action == "join":
                    assert event.node not in live_before
                else:
                    assert event.action == "leave"
                    assert event.node in live_before
            fleet.apply(events)
            size = len(fleet.live_nodes)
            assert size >= 1  # leaves never empty the fleet below min_nodes


# ---------------------------------------------------------------------- #
# Integration: real cluster, pipeline vs reference, serial vs workers
# ---------------------------------------------------------------------- #
CFG = MeasurementConfig(warmup=300.0, horizon=2_500.0, window=200.0)


@pytest.fixture(scope="module")
def moving_classes():
    from repro.distributions import BoundedPareto

    return make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.9, (1.0, 2.0))


def scaled_scenario(classes, *, autoscaler, seed=42, scenario_class=Scenario):
    server = make_cluster(
        4,
        "weighted_jsq",
        capacities=(0.25,) * 4,
        seed=7,
        fleet=FleetSchedule(initial_down=(2, 3)),
    )
    return scenario_class(
        classes,
        CFG,
        server=server,
        spec=PsdSpec.of(1, 2),
        seed=seed,
        autoscaler=autoscaler,
    )


class TestScenarioIntegration:
    @pytest.mark.parametrize("name", sorted(AUTOSCALERS))
    def test_batched_and_per_event_paths_agree_bit_for_bit(self, name, moving_classes):
        batched, scalar = (
            scaled_scenario(
                moving_classes, autoscaler=build_autoscaler(name), scenario_class=scenario_class
            ).run()
            for scenario_class in (Scenario, ReferenceScenario)
        )
        assert batched.autoscale_events, "the scaler never acted on a 0.9-load half fleet"
        assert batched.autoscale_events == scalar.autoscale_events
        assert batched.fleet_timeline == scalar.fleet_timeline
        assert batched.per_class_mean_slowdowns() == scalar.per_class_mean_slowdowns()
        assert np.array_equal(
            batched.ledger.completion_time, scalar.ledger.completion_time, equal_nan=True
        )

    def test_scaler_actually_grows_the_half_fleet(self, moving_classes):
        result = scaled_scenario(moving_classes, autoscaler=TargetTracking(target=0.85)).run()
        joined = {e.node for e in result.autoscale_events if e.action == "join"}
        assert joined & {2, 3}, result.autoscale_events
        # Events also materialised in the fleet timeline as state changes.
        assert any(
            states[2] == "live" or states[3] == "live"
            for _, states, _ in result.fleet_timeline
        )

    def test_autoscale_events_none_without_a_scaler(self, moving_classes):
        result = scaled_scenario(moving_classes, autoscaler=None).run()
        assert result.autoscale_events is None

    def test_autoscaler_requires_a_cluster(self, moving_classes):
        with pytest.raises(SimulationError, match="apply_fleet_event"):
            Scenario(moving_classes, CFG, autoscaler=TargetTracking())

    def test_runtime_event_validation(self, moving_classes):
        server = make_cluster(2, "round_robin", capacities=(0.5, 0.5))
        with pytest.raises(SimulationError, match="bound cluster"):
            server.apply_fleet_event(FleetEvent(time=0.0, action="join", node=0))
        scenario = Scenario(moving_classes, CFG, server=server, spec=PsdSpec.of(1, 2), seed=1)
        with pytest.raises(SimulationError, match="engine clock"):
            server.apply_fleet_event(FleetEvent(time=123.0, action="join", node=0))
        with pytest.raises(SimulationError, match="targets node"):
            server.apply_fleet_event(
                FleetEvent(time=scenario.engine.now, action="join", node=5)
            )


class TestWorkerDeterminism:
    def test_workers_do_not_change_autoscale_runs(self, moving_classes):
        build = AutoscaleBuild(
            tuple(moving_classes),
            CFG,
            PsdSpec.of(1, 2),
            num_nodes=4,
            capacities=(0.25,) * 4,
            dispatch_entropy=123,
            pattern_entropy=321,
            patterns=(
                DiurnalPattern(amplitude=0.5, period=1_100.0),
                FlashCrowd(start=1_500.0, duration=400.0, magnitude=2.0),
            ),
            initial_nodes=2,
            autoscaler="target_tracking",
        )
        serial = ReplicationRunner(replications=3, base_seed=31, workers=1).run(build)
        parallel = ReplicationRunner(replications=3, base_seed=31, workers=2).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        any_events = False
        for parallel_result, serial_result in zip(parallel.results, serial.results):
            assert parallel_result.autoscale_events == serial_result.autoscale_events
            assert parallel_result.fleet_timeline == serial_result.fleet_timeline
            assert parallel_result.generated_counts == serial_result.generated_counts
            any_events = any_events or bool(parallel_result.autoscale_events)
        assert any_events, "no replication ever scaled"
