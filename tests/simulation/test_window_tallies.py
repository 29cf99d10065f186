"""The estimation-window statistics, checked against the finished ledger.

``Scenario`` tallies each window's arrivals and offered work from the
admitted rows of its appends, and its measured slowdowns from the rows its
boundary drain returns; it never reads them back from the ledger.  Here a
recording controller keeps every ``observe_window`` argument, and each is
compared bit for bit with the window re-read from the finished ledger: the
rows that arrived before the boundary (shed rows left out) and the
completion-log entries due by it, reduced by
:func:`tests.reference.window_stats`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import AdmissionController, make_cluster, parse_fleet_events, resolve_capacities
from repro.core import PsdController, PsdSpec
from repro.core.admission import QueueLengthAdmission
from repro.distributions import BoundedPareto
from repro.distributions.rng import spawn_generators
from repro.simulation import MeasurementConfig, Scenario
from repro.simulation.generator import sources_from_classes
from repro.types import TrafficClass, scale_arrival_rates
from tests.reference import window_stats

pytestmark = pytest.mark.usefixtures("checked_runs")

SERVICE = BoundedPareto(0.3, 10.0, 1.5)
#: Offered work ~3.9/time: one unit server is saturated, the 3.0-capacity
#: clusters below are overloaded, so admission sheds and degrades.
CLASSES = (
    TrafficClass("gold", 2.5, SERVICE, 1.0),
    TrafficClass("silver", 2.5, SERVICE, 2.0),
)
CONFIG = MeasurementConfig(warmup=20.0, horizon=300.0, window=20.0)
SPEC = PsdSpec.of(1, 2)


class RecordingController(PsdController):
    """The adaptive controller, keeping every window it observes."""

    def __init__(self, classes, spec):
        super().__init__(classes, spec)
        self.seen = []

    def observe_window(self, time, window_length, arrivals, work, slowdowns=None):
        self.seen.append((time, arrivals, work, slowdowns))
        return super().observe_window(time, window_length, arrivals, work, slowdowns)


def cluster(fleet=None):
    return make_cluster(
        2,
        "weighted_jsq",
        capacities=resolve_capacities("2:1", 2),
        seed=np.random.SeedSequence(entropy=5),
        fleet=fleet,
    )


def run(classes=CLASSES, **kwargs):
    controller = RecordingController(classes, SPEC)
    return Scenario(classes, CONFIG, controller=controller, **kwargs).run(), controller.seen


def assert_tallies_match_the_ledger(result, seen):
    ledger = result.ledger
    arrivals = ledger.arrival_time
    logged_times = ledger.completion_time[ledger.completed_ids]
    config = result.config
    assert len(seen) == round(config.horizon / config.window)
    previous = 0.0
    for time, arrived, work, slowdowns in seen:
        # A window's rows arrived in [previous, time): its block is drawn
        # up to the boundary, exclusive.  Its drain booked every completion
        # due by the boundary, inclusive.
        rows = slice(*np.searchsorted(arrivals, [previous, time], side="left").tolist())
        logged = slice(*np.searchsorted(logged_times, [previous, time], side="right").tolist())
        expected = window_stats(ledger, rows, logged)
        np.testing.assert_array_equal(arrived, expected[0])
        np.testing.assert_array_equal(work, expected[1])
        np.testing.assert_array_equal(slowdowns, expected[2])
        previous = time
    assert sum(sum(arrived) for _, arrived, _, _ in seen) > 0
    assert any(not np.isnan(s).all() for _, _, _, s in seen)


def test_a_single_node_run():
    result, seen = run(classes=scale_arrival_rates(CLASSES, 0.2), seed=3)
    assert_tallies_match_the_ledger(result, seen)


def test_quota_admission_that_sheds_and_degrades():
    admission = AdmissionController((0.05, 0.05), degrade_threshold=0.0, shed_threshold=1.5)
    result, seen = run(server=cluster(), admission=admission, seed=11)
    assert sum(result.rejected_counts) > 0
    assert sum(result.degraded_counts) > 0
    assert_tallies_match_the_ledger(result, seen)


def test_the_queue_length_walk_across_a_fleet_event_inside_a_window():
    # Both events fall strictly inside a window, so its arrivals are walked
    # in several segments, each appended on its own.
    fleet = parse_fleet_events("leave:0@130 join:0@170")
    result, seen = run(server=cluster(fleet), admission=QueueLengthAdmission((4, 4)), seed=7)
    assert sum(result.rejected_counts) > 0
    assert {130.0, 170.0} <= {time for time, _, _ in result.fleet_timeline}
    assert_tallies_match_the_ledger(result, seen)


def test_sources_that_out_produce_the_declared_rates_grow_the_ledger():
    # The classes declare a tenth of what their sources draw: ~200 of
    # ~2000 rows, so the presized ledger must still double.
    declared = scale_arrival_rates(CLASSES, 0.02)
    sources = sources_from_classes(scale_arrival_rates(CLASSES, 0.2), spawn_generators(5, 2))
    config = MeasurementConfig(warmup=100.0, horizon=2_000.0, window=100.0)
    controller = RecordingController(declared, SPEC)
    scenario = Scenario(declared, config, controller=controller, sources=sources)
    presized = scenario.ledger.capacity
    result = scenario.run()
    assert len(result.ledger) > presized
    assert_tallies_match_the_ledger(result, controller.seen)
