"""The window-boundary contract: one observation for every boundary consumer.

At each estimation-window boundary the scenario gives the controller the
window's arrivals, work and measured slowdowns, applies the new rates, then
captures one :class:`~repro.core.WindowObservation` and hands it to the
autoscaler and to admission.  A fleet event in between means admission gets
a fresh capture of the fleet that serves the next window.  Both the batched
pipeline and the per-event reference must keep that contract.
"""

import math

import pytest

from repro.cluster import AdmissionController, AutoscalerPolicy, FleetSchedule, make_cluster
from repro.core import PsdSpec
from repro.distributions import BoundedPareto
from repro.simulation import MeasurementConfig, Scenario, StaticRateController
from tests.conftest import make_classes
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

CFG = MeasurementConfig(warmup=200.0, horizon=2_000.0, window=200.0)
CAPACITY = 0.25


class ScriptedScaleOut(AutoscalerPolicy):
    """Grows the fleet on a script; records each observation it was handed."""

    def __init__(self, sizes):
        self.sizes = list(sizes)
        self.scenario = None
        self.seen = []
        super().__init__()

    def desired_fleet_size(self, obs):
        return self.sizes[min(len(self.seen), len(self.sizes) - 1)]

    def observe_boundary(self, obs):
        rates_in_force = self.scenario.rate_history[-1][1]
        events = super().observe_boundary(obs)
        self.seen.append((obs, rates_in_force, events))
        return events


class RecordingQuota(AdmissionController):
    """Quota admission that records each observation and the budget it set."""

    def __init__(self):
        self.seen = []
        super().__init__((0.4, 0.4), drain_factor=0.0)

    def observe_window(self, obs):
        super().observe_window(obs)
        self.seen.append((obs, float(self._reserve.sum() + self._pool)))


@pytest.mark.parametrize("scenario_class", [Scenario, ReferenceScenario])
def test_autoscaler_and_admission_read_one_observation(scenario_class):
    classes = make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.9, (1.0, 2.0))
    server = make_cluster(
        4,
        "weighted_jsq",
        capacities=(CAPACITY,) * 4,
        seed=7,
        fleet=FleetSchedule(initial_down=(2, 3)),
    )
    # Joins node 2 at the first boundary and node 3 at the third.
    scaler = ScriptedScaleOut([3, 3, 4])
    admission = RecordingQuota()
    scenario = scenario_class(
        classes,
        CFG,
        server=server,
        spec=PsdSpec.of(1, 2),
        seed=3,
        autoscaler=scaler,
        admission=admission,
    )
    scaler.scenario = scenario
    result = scenario.run()

    start, *boundaries = admission.seen
    assert start[0].time == 0.0 and start[0].arrivals == (0, 0)
    assert all(math.isnan(s) for s in start[0].slowdowns)
    assert len(boundaries) == len(scaler.seen) == len(result.rate_history) - 1
    joined = []
    for (seen, rates, events), (budgeted, budget) in zip(scaler.seen, boundaries):
        assert seen.rates == rates
        if not events:
            assert budgeted is seen
            continue
        # Admission budgets from a fresh capture of the post-event fleet.
        assert budgeted is not seen
        window_fields = ("time", "window", "arrivals", "work", "rates", "estimated_loads")
        assert [getattr(budgeted, f) for f in window_fields] == [
            getattr(seen, f) for f in window_fields
        ]
        for event in events:
            assert event.action == "join"
            assert event.node not in seen.live_nodes and event.node in budgeted.live_nodes
            joined.append(event.node)
        assert budgeted.live_capacity == pytest.approx(CAPACITY * len(budgeted.live_nodes))
        assert budget == pytest.approx(
            admission.target_utilisation * budgeted.live_capacity * CFG.window
        )
    assert joined == [2, 3]


class RecordingController(StaticRateController):
    """A fixed-rate controller that records the slowdowns it is handed."""

    def __init__(self, rates):
        super().__init__(rates)
        self.slowdowns = []

    def observe_window(self, time, window_length, arrivals, work, slowdowns=None):
        self.slowdowns.append(slowdowns)
        return super().observe_window(time, window_length, arrivals, work, slowdowns)


def test_every_controller_gets_the_window_slowdowns():
    classes = make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.6, (1.0, 2.0))
    controller = RecordingController((0.5, 0.5))
    result = Scenario(classes, CFG, controller=controller, seed=5).run()
    assert len(controller.slowdowns) == len(result.rate_history) - 1 == 10
    ledger = result.ledger
    ids = ledger.completed_ids
    done, cls = ledger.completion_time[ids], ledger.class_index[ids]
    slowdown = ledger.slowdowns(ids)
    for k, observed in enumerate(controller.slowdowns):
        # The completions of window k, each class's mean (NaN when none).
        in_window = (done > k * CFG.window) & (done <= (k + 1) * CFG.window)
        for c in range(2):
            values = slowdown[in_window & (cls == c)]
            if values.size:
                assert observed[c] == pytest.approx(float(values.mean()), rel=1e-12)
            else:
                assert math.isnan(observed[c])
