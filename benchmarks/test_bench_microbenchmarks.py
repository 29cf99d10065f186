"""Micro-benchmarks of the building blocks.

Not tied to a paper figure; these track the cost of the pieces every
experiment leans on — Bounded Pareto sampling, the Eq. 17/18 closed forms,
the controller's per-window cost, the discrete-event simulator's event
throughput and the WFQ scheduler — so performance regressions in the
substrate are visible separately from the figure benches.
"""

import time
from itertools import accumulate

import numpy as np
import pytest

from repro.core import (
    FeedbackPsdController,
    PsdController,
    PsdSpec,
    allocate_rates,
    expected_slowdowns,
)
from repro.distributions import BoundedPareto
from repro.experiments.base import ScenarioBuild
from repro.scheduling import WeightedFairQueueing
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    ReplicationRunner,
    Scenario,
    WorkerPool,
)
from repro.workload import web_classes


@pytest.mark.benchmark(group="micro")
def test_bounded_pareto_sampling_throughput(benchmark):
    bp = BoundedPareto.paper_default()
    rng = np.random.default_rng(0)

    def draw():
        return bp.sample(rng, 100_000)

    samples = benchmark(draw)
    assert samples.shape == (100_000,)
    assert samples.min() >= bp.k


@pytest.mark.benchmark(group="micro")
def test_rate_allocation_closed_form(benchmark):
    classes = web_classes(3, 0.8, (1.0, 2.0, 4.0))
    spec = PsdSpec.of(1, 2, 4)

    def allocate():
        allocation = allocate_rates(classes, spec)
        return allocation.rates, expected_slowdowns(classes, spec)

    rates, slowdowns = benchmark(allocate)
    assert sum(rates) == pytest.approx(1.0)
    assert slowdowns[2] / slowdowns[0] == pytest.approx(4.0)


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("kind", [PsdController, FeedbackPsdController])
def test_controller_window_cost(benchmark, kind):
    """Wall time of one estimation window: estimate, Eq. 17 and the decision.

    The paper's 3-class traffic at load 0.8 with window 1000, windows drawn
    once from a fixed seed.  ``controller_window_us`` is the best of five
    passes over 200 windows, each on a fresh controller.  Only correctness
    is asserted: the last window's rates are :func:`allocate_rates` on the
    controller's estimate.
    """
    classes = web_classes(3, 0.8, (1.0, 2.0, 4.0))
    spec = PsdSpec.of(1, 2, 4)
    window = 1_000.0
    rng = np.random.default_rng(7)
    windows = []
    for _ in range(200):
        arrivals = [int(rng.poisson(c.arrival_rate * window)) for c in classes]
        work = [float(c.service.sample(rng, a).sum()) for c, a in zip(classes, arrivals)]
        slowdowns = [d * float(rng.uniform(2.0, 6.0)) for d in spec.deltas]
        windows.append((arrivals, work, slowdowns))

    def one_pass():
        controller = kind(classes, spec)
        start = time.perf_counter()
        for step, (arrivals, work, slowdowns) in enumerate(windows, start=1):
            controller.observe_window(step * window, window, arrivals, work, slowdowns)
        return (time.perf_counter() - start) / len(windows), controller

    def best_of_five():
        passes = [one_pass() for _ in range(5)]
        return min(cost for cost, _ in passes), passes[-1][1]

    cost, controller = benchmark.pedantic(best_of_five, rounds=1, iterations=1)
    benchmark.extra_info["controller_window_us"] = round(cost * 1e6, 2)

    decision = controller.decisions[-1]
    assert decision.feasible
    deltas = spec.deltas
    if kind is FeedbackPsdController:
        # The feedback controller allocates with its effective deltas,
        # clamped non-decreasing.
        deltas = tuple(accumulate(controller.effective_deltas, max))
    estimated = [
        c.with_arrival_rate(load / c.service.mean())
        for c, load in zip(classes, decision.estimated_loads)
    ]
    assert decision.rates == allocate_rates(estimated, PsdSpec(deltas)).rates
    assert controller.current_rates == decision.rates


@pytest.mark.benchmark(group="micro")
def test_simulator_event_throughput(benchmark):
    classes = web_classes(2, 0.6, (1.0, 2.0))
    config = MeasurementConfig(
        warmup=500.0, horizon=5_000.0, window=500.0
    ).scaled_to_time_units(classes[0].service.mean())

    def run():
        return Scenario(classes, config, server=RateScalableServers(), seed=1).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(result.completed_counts) > 1_000


@pytest.mark.benchmark(group="micro")
def test_wfq_selection_throughput(benchmark):
    rng = np.random.default_rng(2)
    sizes = rng.uniform(0.1, 2.0, size=5_000)

    def churn():
        scheduler = WeightedFairQueueing(4, weights=[0.4, 0.3, 0.2, 0.1])
        for i, size in enumerate(sizes):
            scheduler.enqueue(i % 4, float(size), 0.0, payload=i)
        served = 0
        now = 0.0
        while scheduler.total_backlog():
            job = scheduler.select(now)
            now += job.size
            served += 1
        return served

    served = benchmark.pedantic(churn, rounds=3, iterations=1)
    assert served == sizes.size


@pytest.mark.benchmark(group="micro")
def test_replication_runner_serial_vs_parallel(benchmark):
    """Wall-time of serial vs forked parallel replications, same aggregate.

    The determinism contract is the hard assertion: ``workers=N`` must
    reproduce the ``workers=1`` summary statistics bit-for-bit (same child
    seeds in the same order, results re-assembled by replication index).
    The wall-times are printed for the record; no speedup is asserted —
    with one CPU (or tiny replications) fork + result pickling dominates.
    """
    classes = web_classes(2, 0.7, (1.0, 2.0))
    config = MeasurementConfig(
        warmup=500.0, horizon=6_000.0, window=500.0
    ).scaled_to_time_units(classes[0].service.mean())

    def build(_, seed_seq):
        return Scenario(classes, config, spec=PsdSpec.of(1, 2), seed=seed_seq).run()

    def timed(workers):
        start = time.perf_counter()
        summary = ReplicationRunner(replications=4, base_seed=1729, workers=workers).run(build)
        return time.perf_counter() - start, summary

    def run_both():
        serial_time, serial = timed(1)
        parallel_time, parallel = timed(2)
        return serial_time, serial, parallel_time, parallel

    serial_time, serial, parallel_time, parallel = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print()
    print(
        f"  serial: {serial_time:.2f}s  parallel(2 workers): {parallel_time:.2f}s  "
        f"speedup: {serial_time / parallel_time:.2f}x"
    )

    # Bit-identical aggregates regardless of worker count.
    assert parallel.per_class_slowdowns == serial.per_class_slowdowns
    assert parallel.system_slowdown == serial.system_slowdown
    assert parallel.ratios_to_first == serial.ratios_to_first
    assert parallel.mean_slowdowns == serial.mean_slowdowns
    assert [r.generated_counts for r in parallel.results] == [
        r.generated_counts for r in serial.results
    ]


@pytest.mark.benchmark(group="micro")
def test_worker_pool_reuse_across_batches(benchmark):
    """A fresh pool per batch vs one persistent pool over a multi-batch sweep.

    The pool amortises the fork cost that dominates small (quick-preset)
    batches; the hard assertion is again the determinism contract — the pool
    must reproduce the fresh-pool summaries bit-for-bit for every batch
    of the sweep.  Wall-times are printed for the record; no speedup is
    asserted (with one CPU the pool saves only the forks).
    """
    classes = web_classes(2, 0.6, (1.0, 2.0))
    config = MeasurementConfig(
        warmup=300.0, horizon=2_500.0, window=300.0
    ).scaled_to_time_units(classes[0].service.mean())
    build = ScenarioBuild(tuple(classes), config, PsdSpec.of(1, 2))
    batches = 6

    def run_batches(pool):
        summaries = []
        for batch in range(batches):
            runner = ReplicationRunner(replications=4, base_seed=900 + batch, workers=2, pool=pool)
            summaries.append(runner.run(build))
        return summaries

    def timed():
        start = time.perf_counter()
        pool = WorkerPool(workers=2)
        try:
            pooled = run_batches(pool)
        finally:
            pool.close()
        pooled_time = time.perf_counter() - start
        # The fresh-pool-per-batch baseline isolates exactly the reuse win.
        start = time.perf_counter()
        forked = []
        for batch in range(batches):
            pool = WorkerPool(workers=2)
            try:
                forked.append(
                    ReplicationRunner(
                        replications=4, base_seed=900 + batch, workers=2, pool=pool
                    ).run(build)
                )
            finally:
                pool.close()
        forked_time = time.perf_counter() - start
        return pooled, pooled_time, forked, forked_time

    pooled, pooled_time, forked, forked_time = benchmark.pedantic(timed, rounds=1, iterations=1)
    print()
    print(
        f"  persistent pool: {pooled_time:.2f}s  fork-per-batch: {forked_time:.2f}s  "
        f"({batches} batches x 4 replications)"
    )
    for reused, fresh in zip(pooled, forked):
        assert reused.per_class_slowdowns == fresh.per_class_slowdowns
        assert reused.system_slowdown == fresh.system_slowdown
        assert reused.ratios_to_first == fresh.ratios_to_first
