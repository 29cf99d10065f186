"""Event-throughput microbench: the columnar ledger vs the seed object path.

The ledger refactor replaced object-per-request bookkeeping (a ``Request``
dataclass per arrival, a ``RequestRecord`` + monitor bucket append + trace
append + Python window sums per completion) with struct-of-arrays columns
addressed by integer id.  This bench quantifies that win on the
effectiveness scenario (two classes of the paper's Bounded Pareto workload
under the adaptive controller, the workload behind Figs. 2-4): it runs the
same simulation through the current columnar pipeline and through a
*retained object-path baseline* — a :class:`Scenario` subclass that
re-enacts, request by request, every allocation and bookkeeping step the
seed performed, using the object APIs the refactor kept (``ledger.view``,
``RequestRecord``, streaming ``WindowedMonitor.record``, appendable
``SimulationTrace``).

Since the batched-hot-path change a third contender joins: the *batched*
pipeline (block arrivals + bulk completion drains, now the default for
capable servers) runs the same simulation without one engine event per
request.  All paths simulate the identical event sequence (same seed, same
ledger underneath), so the requests/sec ratios isolate pure bookkeeping
overhead.  The hard assertions — per-event ledger at least 1.5x the object
path, batched at least 2.5x the per-event path measured in the same process
and bit-identical to it — are checked on the best of three interleaved runs
per path, which suppresses the CPU-contention noise of shared runners.  The
absolute and relative numbers (including batched versus the committed
per-event yardstick, which depends on the machine and so never gates) land
in ``benchmark.extra_info`` and therefore in the ``--benchmark-json``
artifact the CI job uploads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import AdmissionDecision, PsdSpec
from repro.simulation import (
    MeasurementConfig,
    Scenario,
    SimulationTrace,
    WindowedMonitor,
)
from repro.workload import web_classes

#: The ledger path must sustain at least this multiple of the object-path
#: baseline's requests/sec (acceptance bar of the ledger refactor).
MIN_SPEEDUP = 1.5

#: The per-event ledger path's requests/sec as committed in
#: BENCH_BASELINE.json when the batched path landed — a fixed yardstick
#: reported in ``extra_info`` only: a ratio against another machine's
#: number swings with the machine, so it cannot gate.
COMMITTED_PER_EVENT_RPS = 65_840.1

#: The batched path must beat the per-event path measured in the same
#: process by this factor (acceptance bar of the batched hot path; robust to
#: machine differences).
MIN_BATCHED_RELATIVE = 2.5

#: Interleaved timing runs per path; the best of each is compared.
ROUNDS = 3


@dataclass
class _SeedRequest:
    """The seed's per-request object, retained for the baseline's arrivals."""

    request_id: int
    class_index: int
    arrival_time: float
    size: float
    service_start_time: float = math.nan
    completion_time: float = math.nan


class ObjectPathScenario(Scenario):
    """The seed's object-per-request bookkeeping, re-enacted step by step.

    Per arrival: one request object, per-class generated/window counters.
    Per completion: a ``Request`` view, a ``RequestRecord``, a trace append,
    a streaming monitor record, Python window slowdown sums and completion
    counters.  The simulated event sequence is untouched (the same ledger
    drives the servers), so only the bookkeeping cost differs.
    """

    def __init__(self, *args, **kwargs):
        # The object path re-enacts per-request hooks (`_make_arrival`,
        # `_on_completion`); the batched path never calls them, so this
        # scenario must stay on the per-event path regardless of defaults.
        kwargs["batched"] = False
        super().__init__(*args, **kwargs)
        n = len(self.classes)
        self._object_trace = SimulationTrace(n)
        self._object_monitor = WindowedMonitor(
            n, warmup=self.config.warmup, window=self.config.window
        )
        self._object_window_sums = [0.0] * n
        self._object_window_counts = [0] * n
        self._object_window_arrivals = [0] * n
        self._object_window_work = [0.0] * n
        self._object_generated = [0] * n
        self._object_completed = [0] * n
        self._object_live: dict[int, _SeedRequest] = {}
        self._object_counter = 0

    def _make_arrival(self, class_index: int):
        ledger, server, engine = self.ledger, self.server, self.engine

        def handle() -> None:
            source = self.sources[class_index]
            size = source.next_size()
            self._object_generated[class_index] += 1
            decision = (
                AdmissionDecision.ACCEPT
                if self.admission is None
                else self.admission.decide(class_index, size, self._system_snapshot())
            )
            if decision is not AdmissionDecision.SHED:
                request = _SeedRequest(self._object_counter, class_index, engine.now, size)
                self._object_counter += 1
                self._object_window_arrivals[class_index] += 1
                self._object_window_work[class_index] += size
                rid = ledger.append(class_index, engine.now, size)
                self._object_live[rid] = request
                server.submit(rid)
            else:
                self._rejected[class_index] += 1
            gap = source.next_interarrival()
            if np.isfinite(gap):
                engine.schedule_after(gap, handle, label=f"arrival-{class_index}")

        return handle

    def _on_completion(self, rid: int) -> None:
        self._object_live.pop(rid, None)
        record = self._object_trace.add(self.ledger.view(rid))
        self._object_monitor.record(record)
        self._object_window_sums[record.class_index] += record.slowdown
        self._object_window_counts[record.class_index] += 1
        self._object_completed[record.class_index] += 1


def _effectiveness_point():
    classes = web_classes(2, 0.6, (1.0, 2.0))
    config = MeasurementConfig(
        warmup=1_000.0, horizon=15_000.0, window=1_000.0
    ).scaled_to_time_units(classes[0].service.mean())
    return classes, config, PsdSpec.of(1, 2)


def _timed_run(scenario_class, **kwargs):
    classes, config, spec = _effectiveness_point()
    start = time.perf_counter()
    result = scenario_class(classes, config, spec=spec, seed=1, **kwargs).run()
    elapsed = time.perf_counter() - start
    completed = sum(result.completed_counts)
    return completed / elapsed, result


@pytest.mark.benchmark(group="throughput")
def test_ledger_event_throughput_vs_object_path(benchmark):
    def measure():
        batched_rps, ledger_rps, object_rps = [], [], []
        baseline_result = None
        for _ in range(ROUNDS):  # interleaved: noise hits all paths alike
            rps, batched_result = _timed_run(Scenario)  # batched by default
            batched_rps.append(rps)
            rps, ledger_result = _timed_run(Scenario, batched=False)
            ledger_rps.append(rps)
            rps, baseline_result = _timed_run(ObjectPathScenario)
            object_rps.append(rps)
        return (
            max(batched_rps),
            max(ledger_rps),
            max(object_rps),
            batched_result,
            ledger_result,
            baseline_result,
        )

    batched_rps, ledger_rps, object_rps, batched_result, ledger_result, baseline_result = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    speedup = ledger_rps / object_rps
    batched_speedup = batched_rps / COMMITTED_PER_EVENT_RPS
    batched_relative = batched_rps / ledger_rps
    benchmark.extra_info["batched_requests_per_sec"] = round(batched_rps, 1)
    benchmark.extra_info["ledger_requests_per_sec"] = round(ledger_rps, 1)
    benchmark.extra_info["object_path_requests_per_sec"] = round(object_rps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["batched_speedup_vs_committed"] = round(batched_speedup, 3)
    benchmark.extra_info["batched_speedup_vs_per_event"] = round(batched_relative, 3)
    print()
    print(
        f"  batched: {batched_rps:,.0f} req/s  per-event ledger: {ledger_rps:,.0f} req/s  "
        f"object path: {object_rps:,.0f} req/s"
    )
    print(
        f"  ledger/object: {speedup:.2f}x  batched/per-event: {batched_relative:.2f}x  "
        f"batched/committed: {batched_speedup:.2f}x"
    )

    # Same seed, same event sequence: the paths must agree exactly on what
    # was simulated before their throughput is comparable.  Batched vs
    # per-event is the bit-identity contract of the batched hot path.
    assert batched_result.completed_counts == ledger_result.completed_counts
    assert (
        batched_result.per_class_mean_slowdowns() == ledger_result.per_class_mean_slowdowns()
    )
    assert batched_result.rate_history == ledger_result.rate_history
    np.testing.assert_array_equal(
        batched_result.ledger.completion_time, ledger_result.ledger.completion_time
    )
    assert baseline_result.completed_counts == ledger_result.completed_counts
    assert baseline_result.per_class_mean_slowdowns() == ledger_result.per_class_mean_slowdowns()
    # The baseline's own object bookkeeping saw every completion.
    assert (
        tuple(baseline_result.controller.current_rates)
        == tuple(ledger_result.controller.current_rates)
    )
    assert speedup >= MIN_SPEEDUP, (
        f"ledger path reached only {speedup:.2f}x of the retained object-path "
        f"baseline (required: {MIN_SPEEDUP}x)"
    )
    assert batched_relative >= MIN_BATCHED_RELATIVE, (
        f"batched path reached only {batched_relative:.2f}x of the per-event "
        f"path measured in this process (required: {MIN_BATCHED_RELATIVE}x)"
    )


#: Per dispatch policy, the multiple of the per-event cluster path (measured
#: in the same process) the batched cluster pipeline must sustain.
#: Round-robin vectorises its choices with ``select_block``; the
#: backlog-dependent policies replay every decision on the completion
#: calendar, so their bar is lower.
MIN_CLUSTER_BATCHED_SPEEDUP = {
    "round_robin": 3.0,
    "jsq": 2.0,
    "weighted_jsq": 2.0,
    "least_work": 2.0,
    "fastest_available": 2.0,
}


def _timed_cluster_run(batched, telemetry=None, policy="round_robin"):
    from repro.cluster import make_cluster

    classes, config, spec = _effectiveness_point()
    server = make_cluster(3, policy, seed=9)
    start = time.perf_counter()
    result = Scenario(
        classes,
        config,
        server=server,
        spec=spec,
        seed=1,
        batched=batched,
        telemetry=telemetry,
    ).run()
    elapsed = time.perf_counter() - start
    return sum(result.completed_counts) / elapsed, result


@pytest.mark.benchmark(group="throughput")
@pytest.mark.parametrize("policy", sorted(MIN_CLUSTER_BATCHED_SPEEDUP))
def test_cluster_batched_throughput(benchmark, policy):
    """The batched cluster hot path vs per-event dispatch, same 3-node fleet.

    Block arrivals reach the cluster whole (segmented only at estimation
    windows and fleet events).  Round-robin picks every node with one
    vectorised ``select_block`` call; the backlog-dependent policies decide
    request by request, booking predicted completions off the cluster's
    completion calendar instead of draining the members before each
    decision.  Completions drain per node in bulk.  The per-event path
    routes one engine event per request through ``submit``.  Both must
    simulate the identical run — the ledger bytes are compared before the
    speedup is.
    """

    def measure():
        batched_rps, per_event_rps = [], []
        for _ in range(ROUNDS):  # interleaved: noise hits both paths alike
            rps, batched_result = _timed_cluster_run(batched=True, policy=policy)
            batched_rps.append(rps)
            rps, per_event_result = _timed_cluster_run(batched=False, policy=policy)
            per_event_rps.append(rps)
        return max(batched_rps), max(per_event_rps), batched_result, per_event_result

    batched_rps, per_event_rps, batched_result, per_event_result = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = batched_rps / per_event_rps
    benchmark.extra_info["cluster_batched_requests_per_sec"] = round(batched_rps, 1)
    benchmark.extra_info["cluster_per_event_requests_per_sec"] = round(per_event_rps, 1)
    benchmark.extra_info["cluster_batched_speedup"] = round(speedup, 3)
    print()
    print(
        f"  cluster batched: {batched_rps:,.0f} req/s  "
        f"cluster per-event: {per_event_rps:,.0f} req/s  speedup: {speedup:.2f}x"
    )

    # Bit-identity first: the speedup only counts if the simulated run is
    # exactly the same one.
    assert batched_result.completed_counts == per_event_result.completed_counts
    assert (
        batched_result.per_class_mean_slowdowns()
        == per_event_result.per_class_mean_slowdowns()
    )
    assert batched_result.rate_history == per_event_result.rate_history
    np.testing.assert_array_equal(
        batched_result.ledger.completion_time, per_event_result.ledger.completion_time
    )
    np.testing.assert_array_equal(
        batched_result.ledger.service_start_time,
        per_event_result.ledger.service_start_time,
    )
    assert speedup >= MIN_CLUSTER_BATCHED_SPEEDUP[policy], (
        f"batched {policy} cluster path reached only {speedup:.2f}x of the "
        f"per-event path measured in this process "
        f"(required: {MIN_CLUSTER_BATCHED_SPEEDUP[policy]}x)"
    )


#: A disabled telemetry facade may cost at most this fraction of the
#: uninstrumented batched path's throughput (the telemetry layer's no-op
#: fast-path acceptance bar: one attribute check per instrumented site).
MAX_TELEMETRY_OFF_OVERHEAD = 0.02

#: Interleaved rounds for the telemetry comparison: the true overhead is a
#: fraction of a percent, far below the run-to-run noise of a shared
#: machine, so the best-of window is wider than :data:`ROUNDS` to keep the
#: tight 2% bar stable.
TELEMETRY_ROUNDS = 5


@pytest.mark.benchmark(group="throughput")
def test_telemetry_noop_fast_path_overhead(benchmark):
    """Carrying a disabled Telemetry facade must be free (< 2% throughput).

    Interleaved best-of runs of the batched pipeline with no telemetry versus
    a ``Telemetry(enabled=False)`` facade threaded through every layer; the
    aggregates must stay bit-identical and the throughput within the bar.
    An *enabled* facade is also timed for the record (extra_info only — its
    cost is allowed to be real).
    """
    from repro.telemetry import Telemetry

    def measure():
        off_rps, disabled_rps, enabled_rps = [], [], []
        for _ in range(TELEMETRY_ROUNDS):  # interleaved: noise hits all paths alike
            rps, off_result = _timed_run(Scenario)
            off_rps.append(rps)
            rps, disabled_result = _timed_run(Scenario, telemetry=Telemetry(enabled=False))
            disabled_rps.append(rps)
            rps, _ = _timed_run(Scenario, telemetry=Telemetry())
            enabled_rps.append(rps)
        return off_rps, disabled_rps, enabled_rps, off_result, disabled_result

    off_rps, disabled_rps, enabled_rps, off_result, disabled_result = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    # A real no-op-path regression slows *every* round; machine noise does
    # not.  Judge the best round-pairwise comparison, which is robust to the
    # +-5% run-to-run jitter of shared runners that a best-of-maxes
    # comparison still inherits.
    overhead = min(1.0 - d / o for d, o in zip(disabled_rps, off_rps))
    benchmark.extra_info["telemetry_off_requests_per_sec"] = round(max(off_rps), 1)
    benchmark.extra_info["telemetry_disabled_requests_per_sec"] = round(max(disabled_rps), 1)
    benchmark.extra_info["telemetry_enabled_requests_per_sec"] = round(max(enabled_rps), 1)
    benchmark.extra_info["telemetry_disabled_overhead"] = round(overhead, 4)
    print()
    print(
        f"  none: {max(off_rps):,.0f} req/s  disabled: {max(disabled_rps):,.0f} req/s  "
        f"enabled: {max(enabled_rps):,.0f} req/s  disabled overhead: {overhead:+.2%}"
    )

    # The disabled facade must not perturb the simulation in any way.
    assert disabled_result.completed_counts == off_result.completed_counts
    assert (
        disabled_result.per_class_mean_slowdowns() == off_result.per_class_mean_slowdowns()
    )
    assert disabled_result.rate_history == off_result.rate_history
    np.testing.assert_array_equal(
        disabled_result.ledger.completion_time, off_result.ledger.completion_time
    )
    assert overhead <= MAX_TELEMETRY_OFF_OVERHEAD, (
        f"disabled telemetry cost {overhead:.2%} of batched throughput "
        f"(allowed: {MAX_TELEMETRY_OFF_OVERHEAD:.0%})"
    )


@pytest.mark.benchmark(group="throughput")
def test_cluster_telemetry_noop_fast_path_overhead(benchmark):
    """A disabled telemetry facade must also be free on the cluster path.

    The cluster dispatch loop hoists its telemetry checks out of the
    per-request walk (one enabled-check per block/drain, not per request);
    this bench pins that with the same pairwise-min idiom as the
    single-server case.
    """
    from repro.telemetry import Telemetry

    def measure():
        off_rps, disabled_rps = [], []
        for _ in range(TELEMETRY_ROUNDS):  # interleaved: noise hits both alike
            rps, off_result = _timed_cluster_run(batched=True)
            off_rps.append(rps)
            rps, disabled_result = _timed_cluster_run(
                batched=True, telemetry=Telemetry(enabled=False)
            )
            disabled_rps.append(rps)
        return off_rps, disabled_rps, off_result, disabled_result

    off_rps, disabled_rps, off_result, disabled_result = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = min(1.0 - d / o for d, o in zip(disabled_rps, off_rps))
    benchmark.extra_info["cluster_telemetry_off_requests_per_sec"] = round(max(off_rps), 1)
    benchmark.extra_info["cluster_telemetry_disabled_requests_per_sec"] = round(
        max(disabled_rps), 1
    )
    benchmark.extra_info["cluster_telemetry_disabled_overhead"] = round(overhead, 4)
    print()
    print(
        f"  none: {max(off_rps):,.0f} req/s  disabled: {max(disabled_rps):,.0f} req/s  "
        f"disabled overhead: {overhead:+.2%}"
    )

    assert disabled_result.completed_counts == off_result.completed_counts
    assert (
        disabled_result.per_class_mean_slowdowns() == off_result.per_class_mean_slowdowns()
    )
    np.testing.assert_array_equal(
        disabled_result.ledger.completion_time, off_result.ledger.completion_time
    )
    assert overhead <= MAX_TELEMETRY_OFF_OVERHEAD, (
        f"disabled telemetry cost {overhead:.2%} of batched cluster throughput "
        f"(allowed: {MAX_TELEMETRY_OFF_OVERHEAD:.0%})"
    )


@pytest.mark.benchmark(group="throughput")
def test_object_path_baseline_bookkeeping_is_faithful(benchmark):
    """The baseline's retained object bookkeeping reproduces the ledger's
    aggregates — evidence that the throughput comparison is apples-to-apples."""

    def run():
        classes, config, spec = _effectiveness_point()
        scenario = ObjectPathScenario(classes, config, spec=spec, seed=1)
        return scenario, scenario.run()

    scenario, result = benchmark.pedantic(run, rounds=1, iterations=1)
    ledger = result.ledger
    # Trace/monitor objects mirror the columnar truth record for record.
    assert len(scenario._object_trace) == ledger.num_completed
    np.testing.assert_array_equal(
        scenario._object_trace.to_arrays()["completion_time"],
        ledger.completion_time[ledger.completed_ids],
    )
    assert scenario._object_completed == list(result.completed_counts)
    assert scenario._object_generated == list(result.generated_counts)
    streaming = scenario._object_monitor.samples()
    vectorised = result.monitor.samples()
    assert len(streaming) == len(vectorised)
    for a, b in zip(streaming, vectorised):
        assert (a.start, a.end, a.counts) == (b.start, b.end, b.counts)
        np.testing.assert_array_equal(a.mean_slowdowns, b.mean_slowdowns)
