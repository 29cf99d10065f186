"""Property test: batched cluster dispatch replays the per-event reference.

Hypothesis drives random arrival blocks full of duplicate instants (gaps of
exactly zero), from one or two classes, against random fleet schedules —
node 0 leaving and rejoining, nodes 1/2 changing capacity — whose event
times are often drawn *from* the arrival instants, the nastiest case for
block segmentation.  Two invariants, per policy:

* segmentation never reorders arrivals — the ledger's arrival column is
  byte-identical to the reference run's (:mod:`tests.reference`);
* every dispatch decision matches the per-event reference exactly (same
  log, same fleet timeline, same completion times);

and both runs pass :func:`tests.invariants.check_run`, which serves each
node's classes FCFS with the exact non-idling start.

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
grid-aligned sizes and rates, completions tie arrival instants and fleet
events all the time, and the calendar must book a completion tied with an
arrival before the decision (``<= t``).  Its oracle shares no code with
:mod:`repro.cluster` or the task server: the brute-force choosers of
``tests/cluster/test_chooser_oracle.py`` decide on pending counts and work
left recomputed from scratch, and each request's start and completion come
from the Lindley recursion with rate rebasing of
``tests/simulation/test_fold_oracle.py``, over per-node rates known up
front (a static controller split over the live set of the fleet events).
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster, parse_fleet_events
from repro.distributions import BoundedPareto
from repro.simulation import MeasurementConfig, Scenario, StaticRateController
from repro.simulation.generator import TraceSource
from repro.types import TrafficClass
from tests.cluster.test_chooser_oracle import oracle as chooser_oracle
from tests.invariants import check_run
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
    # Per node and class: FCFS and the exact non-idling start.
    check_run(batched, per_class_servers=True)
    check_run(per_event, per_class_servers=True)
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


def _fleet_script(events):
    """``(time, action, node, capacity)`` per token, in application order
    (stable by time, as the schedule fires them)."""
    script = []
    for token in events.split():
        action, rest = token.split(":")
        target, time = rest.split("@")
        node, _, value = target.partition("=")
        capacity = None if value in ("", "none") else float(value)
        script.append((float(time), action, int(node), capacity))
    return sorted(script, key=lambda event: event[0])


def _rate_segments(policy, rates, script):
    """Per node and class, the ``(time, rate, strict)`` segments the static
    allocation produces: set at bind, re-split over the live set at every
    fleet event, re-applied at the window boundary (the horizon).

    ``weighted_jsq`` and ``fastest_available`` split in proportion to the
    capacities (undeclared weighs 1.0), the others equally; a node whose
    shares sum past its capacity serves them scaled by ``capacity / sum``.
    Only live nodes are re-rated: a leaving node keeps its last rates.
    ``strict`` marks fleet events, which apply before completions tied with
    them (the member is not drained at the event instant), unlike the
    window boundary, which drains first.
    """
    num_classes = len(rates)
    live = [True] * 3
    capacity = [None] * 3
    segments = [[[] for _ in range(num_classes)] for _ in range(3)]

    def split(time, strict):
        nodes = [n for n in range(3) if live[n]]
        weights = [1.0 if capacity[n] is None else capacity[n] for n in nodes]
        total = sum(weights)
        for node, weight in zip(nodes, weights):
            if policy in ("weighted_jsq", "fastest_available"):
                shares = [rate * weight / total for rate in rates]
            else:
                shares = [rate / len(nodes) for rate in rates]
            if capacity[node] is not None and sum(shares) > capacity[node]:
                scale = capacity[node] / sum(shares)
                shares = [share * scale for share in shares]
            for cls, share in enumerate(shares):
                row = segments[node][cls]
                # Same-instant re-splits: the later one rebases nothing.
                if row and row[-1][0] == time:
                    row.pop()
                row.append((time, share, strict))

    split(0.0, False)
    for time, action, node, value in script:
        if action == "set_capacity":
            capacity[node] = value
        else:
            live[node] = action == "join"
        split(time, True)
    split(CFG.horizon, False)
    return segments


def _serve(arrival, size, previous, segments):
    """FCFS ``(start, completion)`` after the class queue's previous
    completion: the Lindley recursion with rate rebasing of
    ``tests/simulation/test_fold_oracle.py``, except that a completion
    falling exactly on a fleet event is rebased too."""
    times = [time for time, _, _ in segments]
    start = max(arrival, previous)
    segment = bisect_right(times, start) - 1
    since, remaining = start, size
    while True:
        rate = segments[segment][1]
        assert rate > 0.0
        completion = since + remaining / rate
        if segment + 1 == len(segments):
            return start, completion
        end, _, strict = segments[segment + 1]
        if completion < end or (completion == end and not strict):
            return start, completion
        remaining = max(remaining - (end - since) * rate, 0.0)
        since = end
        segment += 1


def _brute_force_run(policy, traces, events, rates):
    """Arrivals, dispatch log, starts and completions of the run, from
    scratch: before each arrival every completion ``<= t`` leaves the
    pending counts and work left, then :func:`chooser_oracle` picks among
    the nodes live at ``t``."""
    arrivals = []
    for cls, (gaps, sizes) in enumerate(traces):
        t = 0.0
        for gap, size in zip(gaps, sizes):
            t += gap
            arrivals.append((t, cls, size))
    # Ledger order; CLASS_OFFSETS keep the classes from tying.
    arrivals.sort(key=lambda arrival: arrival[0])
    script = _fleet_script(events)
    segments = _rate_segments(policy, rates, script)
    num_classes = len(traces)
    live = [True] * 3
    capacity = [1.0] * 3
    applied = 0
    free = [[-math.inf] * num_classes for _ in range(3)]
    served = []  # (node, class, size, start, completion) per request
    for t, cls, size in arrivals:
        while applied < len(script) and script[applied][0] <= t:
            _, action, node, value = script[applied]
            if action == "set_capacity":
                capacity[node] = 1.0 if value is None else value
            else:
                live[node] = action == "join"
            applied += 1
        pending = [[0] * num_classes for _ in range(3)]
        work_left = [0.0] * 3
        for node, c, s, _, completion in served:
            if completion > t:
                pending[node][c] += 1
                work_left[node] += s
        nodes = [n for n in range(3) if live[n]]
        node = chooser_oracle(policy, nodes, cls, pending, work_left, capacity)
        start, completion = _serve(t, size, free[node][cls], segments[node][cls])
        free[node][cls] = completion
        served.append((node, cls, size, start, completion))
    horizon = CFG.horizon
    starts = np.array([s if s <= horizon else np.nan for *_, s, _ in served])
    completions = np.array([c if c <= horizon else np.nan for *_, c in served])
    return arrivals, [node for node, *_ in served], starts, completions


@settings(max_examples=40, deadline=None)
@given(
    case=_cases([0.25, 0.5, 1.0]),
    policy=st.sampled_from(["jsq", "weighted_jsq", "least_work", "fastest_available"]),
)
def test_calendar_books_tied_completions_like_the_oracle(case, policy):
    traces, events = case
    # 0.5 per node per class on the 3-node equal split: size / rate stays on
    # the 0.25 arrival grid, so completions tie arrivals and fleet events.
    rates = (1.5,) * len(traces)
    result = _run(_cluster(policy, events), traces, controller=StaticRateController(rates))
    check_run(result, per_class_servers=True)
    arrivals, log, starts, completions = _brute_force_run(policy, traces, events, rates)
    ledger = result.ledger
    assert ledger.arrival_time.tolist() == [t for t, _, _ in arrivals]
    assert ledger.class_index.tolist() == [cls for _, cls, _ in arrivals]
    assert result.dispatch_log == log
    assert ledger.service_start_time.tobytes() == starts.tobytes()
    assert ledger.completion_time.tobytes() == completions.tobytes()
