"""Property test: batched cluster dispatch replays the per-event reference.

Hypothesis drives random arrival blocks full of duplicate instants (gaps of
exactly zero), from one or two classes, against random fleet schedules —
node 0 leaving and rejoining, nodes 1/2 changing capacity — whose event
times are often drawn *from* the arrival instants, the nastiest case for
block segmentation.  Two invariants, per policy:

* segmentation never reorders arrivals — the ledger's arrival column is
  byte-identical to the reference run's (:mod:`tests.reference`);
* every dispatch decision matches the per-event reference exactly (same
  log, same fleet timeline, same completion times).

``round_robin`` exercises the vectorised ``select_block`` route; ``jsq``,
``weighted_jsq``, ``least_work`` and ``fastest_available`` run on the
completion calendar (every member is a ``RateScalableServers``), whose
predictions every ``set_capacity`` re-partition must rebuild.

Service sizes are deliberately off the arrival grid (sqrt(2)/6, sqrt(3)/4
and sqrt(5)/4 versus 0.25-grid arrivals) and incommensurable, so no sum of
them served at a rate the capacity events produce lands on the grid
(decimal sizes do: 0.23 + 0.57 at rate 0.8 take exactly one time unit), and
the second class arrives on a grid shifted by 0.125, so neither a
completion nor another class's arrival ever ties an arrival instant
exactly: for those measure-zero cases the reference's order is a
scheduling-sequence artifact (whichever event was scheduled first wins),
and the pipeline follows the repo-wide completions-first and class-order
conventions instead.  Fleet-event ties, by contrast, ARE deterministic
(bind-time events always outrank mid-run events) and are generated on
purpose.

The second property pins those conventions where they matter: with
grid-aligned sizes and rates, completions tie arrival instants all the
time, and the calendar must book them (``<= t``) exactly as the scalar walk
does — compared against a fleet whose members hide their predictions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterServerModel,
    build_dispatch_policy,
    make_cluster,
    parse_fleet_events,
)
from repro.distributions import BoundedPareto
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    Scenario,
    StaticRateController,
)
from repro.simulation.generator import TraceSource
from repro.types import TrafficClass
from tests.reference import ReferenceScenario

SERVICE = BoundedPareto(0.3, 5.0, 1.5)
CLASSES = {
    1: (TrafficClass("only", 0.5, SERVICE, 1.0),),
    2: (TrafficClass("gold", 0.25, SERVICE, 1.0), TrafficClass("bronze", 0.25, SERVICE, 2.0)),
}
CFG = MeasurementConfig(warmup=0.0, horizon=30.0, window=30.0)
POLICIES = ["round_robin", "jsq", "weighted_jsq", "least_work", "fastest_available"]
#: Service sizes no sum of which, over any partitioned rate, is on the grid.
OFF_GRID_SIZES = (np.sqrt(2) / 6, np.sqrt(3) / 4, np.sqrt(5) / 4)
#: Grid offset of each class's first arrival: class 1 never ties class 0.
CLASS_OFFSETS = (0.0, 0.125)


@st.composite
def _traces(draw, num_classes, sizes):
    traces = []
    for offset in CLASS_OFFSETS[:num_classes]:
        gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=15))
        gaps[0] += offset
        traces.append(
            (gaps, draw(st.lists(st.sampled_from(sizes), min_size=len(gaps), max_size=len(gaps))))
        )
    return traces


@st.composite
def _events(draw, traces):
    arrivals = [float(t) for gaps, _ in traces for t in np.cumsum(gaps)]
    # Candidate event instants: the arrival instants themselves (exact ties
    # with dispatch decisions) and points strictly between them.
    pool = sorted(set(arrivals) | {t + 0.25 for t in arrivals})
    times = sorted(draw(st.lists(st.sampled_from(pool), unique=True, max_size=4)))
    # Alternating leave/join of node 0 is valid from any starting state:
    # rejoining a draining node just cancels the drain.
    tokens = [f"{'leave' if k % 2 == 0 else 'join'}:0@{t}" for k, t in enumerate(times)]
    capacity_events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.sampled_from([1, 2]),
                st.sampled_from(["0.25", "0.5", "2", "none"]),
            ),
            unique_by=lambda event: event[:2],
            max_size=3,
        )
    )
    tokens += [f"set_capacity:{node}={value}@{t}" for t, node, value in capacity_events]
    return " ".join(tokens)


@st.composite
def _cases(draw, sizes):
    traces = draw(_traces(draw(st.sampled_from([1, 2])), sizes))
    return traces, draw(_events(traces))


def _run(cluster, traces, controller=None, scenario_class=Scenario):
    sources = [
        TraceSource(index, interarrivals=gaps, sizes=sizes)
        for index, (gaps, sizes) in enumerate(traces)
    ]
    return scenario_class(
        CLASSES[len(traces)],
        CFG,
        server=cluster,
        controller=controller,
        seed=11,
        sources=sources,
    ).run()


def _cluster(policy, events):
    return make_cluster(
        3,
        policy,
        fleet=parse_fleet_events(events) if events else None,
        record_dispatch=True,
        seed=3,
    )


@settings(max_examples=60, deadline=None)
@given(case=_cases(OFF_GRID_SIZES), policy=st.sampled_from(POLICIES))
def test_batched_dispatch_replays_per_event_oracle(case, policy):
    traces, events = case
    batched = _run(_cluster(policy, events), traces)
    per_event = _run(_cluster(policy, events), traces, scenario_class=ReferenceScenario)
    # Segmentation preserved arrival order, byte for byte.
    assert (
        batched.ledger.arrival_time.tobytes() == per_event.ledger.arrival_time.tobytes()
    )
    # Every dispatch decision matches the per-event oracle.
    assert batched.dispatch_log == per_event.dispatch_log
    assert batched.fleet_timeline == per_event.fleet_timeline
    assert batched.rate_history == per_event.rate_history
    assert batched.ledger.completion_time.tobytes() == (
        per_event.ledger.completion_time.tobytes()
    )


class _Unpredicting(RateScalableServers):
    """A rate-scalable node that withholds its completion predictions, so a
    cluster of them dispatches through the scalar walk."""

    def outstanding(self):
        return None


@settings(max_examples=40, deadline=None)
@given(
    case=_cases([0.25, 0.5, 1.0]),
    policy=st.sampled_from(["jsq", "weighted_jsq", "least_work", "fastest_available"]),
)
def test_calendar_books_tied_completions_like_the_walk(case, policy):
    traces, events = case
    fleet = parse_fleet_events(events) if events else None
    # 0.5 per node per class on the 3-node equal split: size / rate stays on
    # the 0.25 arrival grid, so completions tie arrivals and fleet events.
    rates = (1.5,) * len(traces)
    calendar = _run(_cluster(policy, events), traces, controller=StaticRateController(rates))
    walk = _run(
        ClusterServerModel(
            [_Unpredicting() for _ in range(3)],
            dispatch=build_dispatch_policy(policy, seed=3),
            record_dispatch=True,
            fleet=fleet,
        ),
        traces,
        controller=StaticRateController(rates),
    )
    assert calendar.dispatch_log == walk.dispatch_log
    assert calendar.fleet_timeline == walk.fleet_timeline
    for column in ("service_start_time", "completion_time"):
        assert getattr(calendar.ledger, column).tobytes() == (
            getattr(walk.ledger, column).tobytes()
        )
