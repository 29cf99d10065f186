"""Overload survival: quota-reserve admission vs an admission-blind cluster.

Paper extension: the PSD feedback loop has no answer to sustained offered
load past capacity — a scheduler differentiates the backlog, it cannot make
the backlog finite.  A two-node 2:1 capacity mix (same total capacity as the
paper's single server) is offered the two-class workload at system load 1.2
under ``weighted_jsq`` dispatch + ``CapacityProportional`` partitioning, and
the bench contrasts two ways of living through the overload:

* **quota-aware**: the :class:`~repro.cluster.AdmissionController` budgets
  each estimation window from the fleet's live capacity, reserves a quota
  share per class, and sheds the excess.  The *admitted* traffic's
  class-2/class-1 slowdown ratio stays inside the fig. 2 band, the shed
  fraction stays below 25%, and the cluster finishes what it admits.
* **admission-blind**: the same offered load hits the bare cluster.  Queues
  grow with the horizon instead of converging: an order of magnitude more
  unfinished requests and a far larger system slowdown.

A second test pins the hot-path contract that makes admission affordable:
with the quota controller in front, the batched dispatch pipeline and the
per-event reference simulator (``tests/reference.py``) must produce
*bit-identical* ledgers (every column, including the disposition and node
columns) and shed/degrade counters.  A third records the throughput of
the live-admission walk (queue-length caps decided arrival by arrival) for
the baseline's throughput gate.
"""

import time

import numpy as np
import pytest

from repro.cluster import resolve_capacities
from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild, ExperimentConfig, get_preset
from repro.simulation import MeasurementConfig, ReplicationRunner
from tests.reference import reference_build

NUM_NODES = 2
MIX = "2:1"
#: Offered system load: 20% past the fleet's total capacity.
LOAD = 1.2
#: Quota-controller arguments for the defended cell: 45% reserve per class,
#: a 10% shared overflow pool, and a budget targeting 95% utilisation.
ADMISSION = "quota"
ADMISSION_ARGS = ("quota_shares=0.45,0.45", "target_utilisation=0.95")

#: Moderate-tail workload (upper bound 10): pooled mean slowdowns converge
#: within the horizon, keeping the band assertions tight.
CONFIG = ExperimentConfig(
    measurement=MeasurementConfig(
        warmup=2_000.0, horizon=14_000.0, window=500.0, replications=4
    ),
    load_grid=(0.9,),  # unused: the overload classes are built explicitly
    upper_bound=10.0,
    name="cluster-overload-bench",
)


def _replicate(build):
    runner = ReplicationRunner(
        replications=CONFIG.measurement.replications,
        base_seed=np.random.SeedSequence(entropy=CONFIG.base_seed),
        workers=1,
    )
    return runner.run(build)


def _admitted_ratio(summary) -> float:
    """Class-2/class-1 ratio of pooled mean slowdowns over every completion
    (admitted traffic only — shed requests never enter service)."""
    sums, counts = np.zeros(2), np.zeros(2)
    for result in summary.results:
        ledger = result.ledger
        ids = ledger.completed_ids
        classes = ledger.class_index[ids]
        sums += np.bincount(classes, weights=ledger.slowdowns(ids), minlength=2)
        counts += np.bincount(classes, minlength=2)
    means = sums / counts
    return float(means[1] / means[0])


def _generated(summary) -> int:
    return sum(sum(r.generated_counts) for r in summary.results)


def _shed_fraction(summary) -> float:
    shed = sum(sum(r.rejected_counts) for r in summary.results)
    return shed / _generated(summary)


def _unfinished(summary) -> int:
    """Requests admitted but never completed, summed over replications."""
    return sum(
        sum(r.generated_counts) - sum(r.completed_counts) - sum(r.rejected_counts)
        for r in summary.results
    )


def _build(admission, admission_args):
    spec = PsdSpec.of(1, 2)
    classes = CONFIG.classes_for_load(LOAD, spec.deltas, allow_overload=True)
    return ClusterScalingBuild(
        classes,
        CONFIG.scaled_measurement(),
        spec,
        num_nodes=NUM_NODES,
        policy="weighted_jsq",
        dispatch_entropy=CONFIG.base_seed,
        capacities=resolve_capacities(MIX, NUM_NODES),
        partitioner="capacity",
        admission=admission,
        admission_args=admission_args,
    )


@pytest.mark.benchmark(group="cluster")
def test_cluster_overload_quota_vs_blind(benchmark):
    def sweep():
        aware = _replicate(_build(ADMISSION, ADMISSION_ARGS))
        blind = _replicate(_build(None, ()))
        return aware, blind

    aware, blind = benchmark.pedantic(sweep, rounds=1, iterations=1)

    aware_ratio = _admitted_ratio(aware)
    blind_ratio = _admitted_ratio(blind)
    shed = _shed_fraction(aware)
    aware_unfinished = _unfinished(aware)
    blind_unfinished = _unfinished(blind)
    aware_system = aware.system_slowdown.mean
    blind_system = blind.system_slowdown.mean

    print()
    print(
        f"  aware ratio={aware_ratio:.2f} shed={shed:.3f} "
        f"system={aware_system:.1f} unfinished={aware_unfinished}"
    )
    print(
        f"  blind ratio={blind_ratio:.2f} shed=0.000 "
        f"system={blind_system:.1f} unfinished={blind_unfinished}"
    )
    benchmark.extra_info["overload_aware_ratio"] = round(aware_ratio, 3)
    benchmark.extra_info["overload_aware_shed_fraction"] = round(shed, 4)
    benchmark.extra_info["overload_aware_system_slowdown"] = round(aware_system, 2)
    benchmark.extra_info["overload_aware_unfinished"] = aware_unfinished
    benchmark.extra_info["overload_blind_ratio"] = round(blind_ratio, 3)
    benchmark.extra_info["overload_blind_system_slowdown"] = round(blind_system, 2)
    benchmark.extra_info["overload_blind_unfinished"] = blind_unfinished

    # The quota-aware cluster keeps serving the paper's differentiation for
    # the traffic it admits: the achieved ratio stays inside the fig. 2 band.
    assert 1.4 < aware_ratio < 2.8, aware_ratio
    # ... and it buys that by shedding only the capacity excess: offered
    # load 1.2 against a 0.95-utilisation budget needs ~21% shed.
    assert shed < 0.25, shed
    assert shed > 0.05, shed
    # Aware runs finish what they admit (end-of-horizon stragglers only).
    assert aware_unfinished < 0.02 * _generated(aware), aware_unfinished
    # The admission-blind cluster stalls: the backlog grows with the horizon,
    # leaving an order of magnitude more unfinished work and a far larger
    # system slowdown.
    assert blind_unfinished >= 10 * max(aware_unfinished, 1), (
        blind_unfinished,
        aware_unfinished,
    )
    assert blind_system > 3.0 * aware_system, (blind_system, aware_system)


@pytest.mark.benchmark(group="cluster")
def test_overload_admission_batched_bit_identical(benchmark):
    """Admission on the batched hot path must not perturb a single bit.

    The same quota-defended overloaded cell, batched pipeline vs the
    per-event reference: every ledger column (including disposition and
    node), the completion set and the shed/degrade counters must be
    *equal*, not approximately equal — the vectorised block decisions
    replay the scalar ladder exactly.
    """

    def both():
        build = _build(ADMISSION, ADMISSION_ARGS)
        return _replicate(build), _replicate(reference_build(build))

    batched, scalar = benchmark.pedantic(both, rounds=1, iterations=1)

    for batched_result, scalar_result in zip(batched.results, scalar.results):
        b, s = batched_result.ledger, scalar_result.ledger
        assert len(b) == len(s)
        assert np.array_equal(b.class_index, s.class_index)
        assert np.array_equal(b.arrival_time, s.arrival_time)
        assert np.array_equal(b.size, s.size)
        # Shed (and end-of-horizon unfinished) rows never start service, so
        # these columns carry NaN — equal_nan keeps the comparison exact.
        assert np.array_equal(b.service_start_time, s.service_start_time, equal_nan=True)
        assert np.array_equal(b.completion_time, s.completion_time, equal_nan=True)
        assert np.array_equal(b.disposition, s.disposition)
        assert np.array_equal(b.node, s.node)
        assert batched_result.rejected_counts == scalar_result.rejected_counts
        assert batched_result.degraded_counts == scalar_result.degraded_counts
        assert batched_result.generated_counts == scalar_result.generated_counts
        assert batched_result.per_class_mean_slowdowns() == (
            scalar_result.per_class_mean_slowdowns()
        )
    assert batched.per_class_slowdowns == scalar.per_class_slowdowns
    assert batched.system_slowdown == scalar.system_slowdown


#: The live-admission cells: per-class queue-length caps are read at every
#: arrival instant from the bank's completion calendar, and each segment is
#: recorded as one block.  No ``bench/`` workload runs this walk, so its
#: throughput is pinned here, on the 2:1 cluster and on one node (quick
#: preset: seconds).
WALK_ADMISSION_ARGS = ("limits=20,20",)


def _walk_throughput(benchmark, prefix, **cluster):
    """Time the quick preset's replications of one queue-length cell and
    record ``{prefix}requests_per_sec`` for the baseline's throughput gate."""
    config = get_preset("quick")
    spec = PsdSpec.of(1, 2)
    build = ClusterScalingBuild(
        config.classes_for_load(LOAD, spec.deltas, allow_overload=True),
        config.scaled_measurement(),
        spec,
        admission="queue_length",
        admission_args=WALK_ADMISSION_ARGS,
        **cluster,
    )
    runner = ReplicationRunner(
        replications=config.measurement.replications,
        base_seed=np.random.SeedSequence(entropy=config.base_seed),
        workers=1,
    )

    def timed():
        start = time.perf_counter()
        summary = runner.run(build)
        return summary, time.perf_counter() - start

    summary, elapsed = benchmark.pedantic(timed, rounds=1, iterations=1)
    walked = _generated(summary)
    rps = walked / elapsed
    shed = _shed_fraction(summary)
    print()
    label = prefix.rstrip("_")
    print(f"  {label}: {walked} arrivals in {elapsed:.2f}s = {rps:,.0f} req/s, shed={shed:.3f}")
    benchmark.extra_info[f"{prefix}requests_per_sec"] = round(rps, 1)
    benchmark.extra_info[f"{prefix}shed_fraction"] = round(shed, 4)

    # Every arrival went through a live decision: at load 1.2 the caps bind
    # and shed part of the traffic, and what is admitted is served.
    assert 0.0 < shed < 0.5, shed
    assert _unfinished(summary) < 0.05 * walked


@pytest.mark.benchmark(group="cluster")
def test_queue_length_admission_walk_throughput(benchmark):
    _walk_throughput(
        benchmark,
        "walk_",
        num_nodes=NUM_NODES,
        policy="weighted_jsq",
        dispatch_entropy=get_preset("quick").base_seed,
        capacities=resolve_capacities(MIX, NUM_NODES),
        partitioner="capacity",
    )


@pytest.mark.benchmark(group="cluster")
def test_queue_length_admission_one_node_walk_throughput(benchmark):
    """The same walk on the paper's single server: a one-node bank."""
    _walk_throughput(benchmark, "one_node_walk_")
