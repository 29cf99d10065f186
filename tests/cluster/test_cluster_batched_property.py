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

and every run passes :func:`tests.invariants.check_run` (the
``checked_runs`` fixture), which serves each node's classes FCFS with the
exact non-idling start.

``round_robin`` exercises the vectorised ``select_block`` route; ``jsq``,
``weighted_jsq``, ``least_work`` and ``fastest_available`` run on the
completion calendar, whose predictions every ``set_capacity`` re-partition
must rebuild.  Multi-window variants drive the rates with a per-window
script that freezes classes at rate zero, so every boundary rebuilds the
calendar's heads (in service, frozen and thawed, or on empty servers)
against the same reference; the block route's bulk bookkeeping is audited
after every sync against a scalar fold.

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
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterServerModel, make_cluster, parse_fleet_events
from repro.cluster.dispatch import build_dispatch_policy
from repro.distributions import BoundedPareto
from repro.simulation import (
    MeasurementConfig,
    Scenario,
    StaticRateController,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.generator import TraceSource
from repro.types import TrafficClass
from tests.cluster.test_chooser_oracle import oracle as chooser_oracle
from tests.cluster.test_cluster_batched_identity import ScriptedRates
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

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


def _run(cluster, traces, controller=None, scenario_class=Scenario, cfg=CFG):
    sources = [
        TraceSource(index, interarrivals=gaps, sizes=sizes)
        for index, (gaps, sizes) in enumerate(traces)
    ]
    return scenario_class(
        CLASSES[len(traces)],
        cfg,
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
    assert np.array_equal(batched.ledger.node, per_event.ledger.node)
    assert batched.fleet_timeline == per_event.fleet_timeline
    assert batched.rate_history == per_event.rate_history
    assert batched.ledger.completion_time.tobytes() == (
        per_event.ledger.completion_time.tobytes()
    )


#: Ten windows whose boundaries re-rate the cluster, each class's per-window
#: rate drawn from ``RATE_STEPS`` — zero included, so class servers freeze
#: and thaw with requests waiting.
MULTI_CFG = MeasurementConfig(warmup=0.0, horizon=30.0, window=3.0)
RATE_STEPS = (0.0, 0.75, 1.5, 3.0)
CALENDAR_POLICIES = ["jsq", "weighted_jsq", "least_work", "fastest_available"]


#: One size per request, square roots of distinct primes: a rate change
#: starts the frozen heads of several nodes at one instant, and repeated
#: sizes would then tie their completions exactly (``a + b`` vs ``b + a``),
#: where the reference's order is a scheduling-sequence artifact.
DISTINCT_SIZES = tuple(
    float(np.sqrt(p) / 6) for p in range(2, 114) if all(p % d for d in range(2, p))
)


@st.composite
def _rate_cases(draw):
    traces, events = draw(_cases(OFF_GRID_SIZES))
    pool = iter(draw(st.permutations(DISTINCT_SIZES)))
    traces = [(gaps, [next(pool) for _ in gaps]) for gaps, _ in traces]
    vectors = st.tuples(*[st.sampled_from(RATE_STEPS)] * len(traces))
    return traces, events, draw(st.lists(vectors, min_size=2, max_size=10))


#: Class 1 frozen for two windows while its requests arrive, then thawed
#: (each node's frozen head completes at the new rate, its queue behind it);
#: class 0 keeps long jobs in service across every boundary; node 1 leaves,
#: so its class servers empty out and later rebuilds find nothing there.
_THAW = (
    [
        ([0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 1.0], [4 * size for size in DISTINCT_SIZES[:8]]),
        ([0.125, 0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 3.0], list(DISTINCT_SIZES[8:16])),
    ],
    "leave:1@4.25",
    [(0.75, 0.0), (0.75, 0.0), (0.75, 3.0), (1.5, 1.5)],
)


@settings(max_examples=60, deadline=None)
@example(case=_THAW, policy="jsq")
@given(case=_rate_cases(), policy=st.sampled_from(CALENDAR_POLICIES))
def test_rate_changes_replay_per_event_oracle(case, policy):
    """Every window boundary rebuilds the calendar at the scripted rates:
    heads in service re-based, frozen servers thawed with work waiting,
    empty servers skipped — and every ledger column (the node column
    included), the completion log and the fleet timeline match the
    per-event reference.
    """
    traces, events, script = case
    runs = [
        _run(
            _cluster(policy, events),
            traces,
            controller=ScriptedRates(script),
            scenario_class=scenario_class,
            cfg=MULTI_CFG,
        )
        for scenario_class in (Scenario, ReferenceScenario)
    ]
    batched, per_event = (result.ledger for result in runs)
    for column in (
        "class_index",
        "arrival_time",
        "size",
        "service_start_time",
        "completion_time",
        "disposition",
        "node",
        "completed_ids",
    ):
        assert getattr(batched, column).tobytes() == getattr(per_event, column).tobytes(), column
    assert runs[0].fleet_timeline == runs[1].fleet_timeline
    assert runs[0].rate_history == runs[1].rate_history


@settings(max_examples=30, deadline=None)
@given(
    traces=_traces(1, OFF_GRID_SIZES),
    policy=st.sampled_from(CALENDAR_POLICIES),
    rate=st.sampled_from(RATE_STEPS[1:]),
)
def test_rebuild_before_the_heads_arrive(traces, policy, rate):
    """A block dispatched to frozen servers ahead of the clock, then a
    rate change before any of it arrives: each head that has not started
    completes at ``arrival + size / rate`` and the queue behind it folds
    from there.  (A scenario never rebuilds ahead of its dispatched
    arrivals: its blocks end at the next boundary or fleet event.)"""
    gaps, sizes = traces[0]
    arrivals = (1.0 + np.cumsum(gaps)).tolist()
    cluster = make_cluster(3, policy, seed=3)
    cluster.bind(SimulationEngine(), CLASSES[1])
    cluster.apply_rates((0.0,))
    ledger = cluster.ledger
    classes = np.zeros(len(gaps), dtype=np.int64)
    cluster.submit_batch(ledger.append_batch(classes, np.asarray(arrivals), np.asarray(sizes)))
    cluster.drain(0.0)
    cluster.apply_rates((rate,))
    ledger.log_completions(cluster.drain(100.0))
    share = rate / 3  # the equal split of every calendar policy's partitioner
    free = [-math.inf] * 3
    starts, completions = [], []
    for node, arrival, size in zip(ledger.node.tolist(), arrivals, sizes):
        starts.append(max(arrival, free[node]))
        free[node] = starts[-1] + size / share
        completions.append(free[node])
    assert ledger.service_start_time.tolist() == starts
    assert ledger.completion_time.tolist() == completions


class _AuditedCluster(ClusterServerModel):
    """A cluster that checks its pending counts and work left after every
    sync against a scalar left fold over its ledger: a dispatched block
    adds, per node, the sum of its sizes in arrival order; a completion
    subtracts its size, clamped at zero (``max(work - size, 0.0)``), in the
    node's completion order (time, then class, then FCFS)."""

    def _on_bind(self):
        super()._on_bind()
        n, c = self.num_nodes, self.num_classes
        self.node_of = {}
        self.expected_pending = [[0] * c for _ in range(n)]
        self.expected_work = [0.0] * n
        self.folded = set()
        self.syncs = 0

    def submit_batch(self, rids, *columns):
        super().submit_batch(rids, *columns)
        ledger = self.ledger
        sums = {}
        for rid, node in zip(rids.tolist(), ledger.node[rids].tolist()):
            self.node_of[rid] = node
            self.expected_pending[node][ledger.class_of(rid)] += 1
            sums[node] = sums.get(node, 0.0) + ledger.size_of(rid)
        for node, total in sums.items():
            self.expected_work[node] += total

    def _sync_nodes(self, now):
        super()._sync_nodes(now)
        ledger = self.ledger
        done = [
            rid
            for rid in np.flatnonzero(ledger.completion_time <= now).tolist()
            if rid not in self.folded
        ]
        done.sort(key=lambda rid: (ledger.completion_of(rid), ledger.class_of(rid), rid))
        for rid in done:
            node = self.node_of[rid]
            self.expected_pending[node][ledger.class_of(rid)] -= 1
            self.expected_work[node] = max(self.expected_work[node] - ledger.size_of(rid), 0.0)
            self.folded.add(rid)
        assert self.pending_table == self.expected_pending
        assert self.work_left_table == self.expected_work
        self.syncs += 1


def _audited(policy, events="", num_nodes=3):
    return _AuditedCluster(
        [None] * num_nodes,
        dispatch=build_dispatch_policy(policy, seed=3),
        fleet=parse_fleet_events(events) if events else None,
    )


@settings(max_examples=40, deadline=None)
@given(case=_rate_cases(), policy=st.sampled_from(["round_robin", "weighted_random", "affinity"]))
def test_block_route_bookkeeping_matches_a_scalar_fold(case, policy):
    """The block route books each bank drain in bulk (each server's run
    length off its pending count, one ``subtract.reduce`` of work left per
    node); after every sync both tables equal the per-completion scalar
    fold."""
    traces, events, script = case
    cluster = _audited(policy, events)
    result = _run(cluster, traces, controller=ScriptedRates(script), cfg=MULTI_CFG)
    assert cluster.bank._calendar is None
    assert cluster.syncs >= MULTI_CFG.horizon / MULTI_CFG.window


def test_block_route_work_left_clamps_a_negative_residual():
    # 0.3, 0.2 and 0.1 reach node 0 in one block, adding up to 0.6; the
    # first sync (t=30) drains all three and subtracts them in FCFS order,
    # leaving -2.8e-17 unclamped.
    assert 0.0 + 0.3 + 0.2 + 0.1 - 0.3 - 0.2 - 0.1 < 0.0
    cluster = _audited("round_robin", num_nodes=1)
    result = _run(
        cluster, [([0.0, 0.0, 0.0], [0.3, 0.2, 0.1])], controller=StaticRateController((1.0,))
    )
    assert result.ledger.completion_time.tolist() == [0.3, 0.5, 0.6]
    assert cluster.work_left(0) == 0.0
    assert cluster.pending(0, 0) == 0


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
    """Arrivals, node choices, starts and completions of the run, from
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
    arrivals, log, starts, completions = _brute_force_run(policy, traces, events, rates)
    ledger = result.ledger
    assert ledger.arrival_time.tolist() == [t for t, _, _ in arrivals]
    assert ledger.class_index.tolist() == [cls for _, cls, _ in arrivals]
    assert result.ledger.node.tolist() == log
    assert ledger.service_start_time.tobytes() == starts.tobytes()
    assert ledger.completion_time.tobytes() == completions.tobytes()
