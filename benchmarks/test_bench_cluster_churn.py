"""Dynamic fleet churn: controller re-convergence vs a churn-blind baseline.

Paper extension: the PSD feedback loop over a fleet whose membership changes
mid-run.  A two-node 2:1 capacity mix (same total capacity as the paper's
single server) serves the two-class workload at system load 0.9 under the
feedback controller while the fast node is killed at t=6000 time units and
restored at t=6200, and the bench contrasts two ways of living through the
outage:

* **churn-aware**: the :class:`~repro.cluster.FleetSchedule` drains the
  node (``leave``) and rejoins it (``join``); ``weighted_jsq`` dispatch and
  ``CapacityProportional`` partitioning re-normalise over the live capacity
  vector at each event.  The achieved class-2/class-1 slowdown ratio stays
  within the fig. 2 band in every segment — before the kill, through the
  outage+drain, and in the recovery window — i.e. the controller re-converges
  within a bounded window (one recovery segment) of each event.
* **churn-blind**: the same outage hits a fleet with no drain semantics —
  the node degrades to (effectively) zero capacity while ``round_robin`` +
  ``EqualSplit`` keep feeding it requests and rates.  Requests pile up on
  the dead node and never finish, the slow node runs past its capacity, and
  the run *stalls*: an order of magnitude more unfinished requests, a far
  larger system slowdown, and a ratio pinned far from the target for the
  rest of the horizon.

A second test pins the compatibility contract: the *empty* ``FleetSchedule``
reproduces the schedule-less cluster bit for bit on the heterogeneous cell
the existing cluster benches exercise.
"""

import numpy as np
import pytest

from repro.cluster import FleetEvent, FleetSchedule, resolve_capacities
from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild, ExperimentConfig
from repro.simulation import MeasurementConfig, ReplicationRunner

NUM_NODES = 2
MIX = "2:1"
LOAD = 0.9
#: Outage timing in abstract time units: kill the fast node, restore 200 tu
#: later (the drain finishes within the outage; the backlog the missing
#: capacity leaves behind clears within the recovery margin below).
KILL_AT = 6_000.0
RESTORE_AT = 6_200.0
#: Re-convergence bound asserted on: the ratio must be back inside the
#: fig. 2 band for the whole segment starting this many time units after the
#: restore (4 estimation windows).
RECOVERY_MARGIN = 2_000.0
#: Replications of each fleet in the re-convergence test.  The segment
#: ratios are ratios of pooled heavy-tailed means: at 4 replications the
#: band held on only 4-5 of base seeds 0-29, at 64 on all 30.
RECONVERGENCE_REPLICATIONS = 64

#: Moderate-tail workload (upper bound 10): segment-level mean slowdowns
#: converge within the trimmed horizon, keeping the band assertions tight.
CONFIG = ExperimentConfig(
    measurement=MeasurementConfig(
        warmup=2_000.0, horizon=14_000.0, window=500.0, replications=4
    ),
    load_grid=(LOAD,),
    upper_bound=10.0,
    name="cluster-churn-bench",
)


def _replicate(build, replications=CONFIG.measurement.replications):
    runner = ReplicationRunner(
        replications=replications,
        base_seed=np.random.SeedSequence(entropy=CONFIG.base_seed),
        workers=1,
    )
    return runner.run(build)


def _segment_ratio(summary, start_tu, end_tu, time_unit):
    """Class-2/class-1 ratio of pooled mean slowdowns for completions in
    ``[start_tu, end_tu)`` (abstract time units), across all replications."""
    sums, counts = np.zeros(2), np.zeros(2)
    for result in summary.results:
        ledger = result.ledger
        ids = ledger.completed_ids
        completion = ledger.completion_time[ids]
        keep = (completion >= start_tu * time_unit) & (completion < end_tu * time_unit)
        ids = ids[keep]
        classes = ledger.class_index[ids]
        sums += np.bincount(classes, weights=ledger.slowdowns(ids), minlength=2)
        counts += np.bincount(classes, minlength=2)
    means = sums / counts
    return float(means[1] / means[0])


def _unfinished(summary) -> int:
    """Requests admitted but never completed, summed over replications."""
    return sum(
        sum(r.generated_counts) - sum(r.completed_counts) - sum(r.rejected_counts)
        for r in summary.results
    )


@pytest.mark.benchmark(group="cluster")
def test_cluster_churn_reconvergence(benchmark):
    spec = PsdSpec.of(1, 2)
    classes = CONFIG.classes_for_load(LOAD, spec.deltas)
    scaled = CONFIG.scaled_measurement()
    time_unit = CONFIG.service_distribution().mean()
    capacities = resolve_capacities(MIX, NUM_NODES)

    aware_fleet = FleetSchedule(
        events=(
            FleetEvent(time=KILL_AT, action="leave", node=0),
            FleetEvent(time=RESTORE_AT, action="join", node=0),
        )
    ).scaled_to_time_units(time_unit)
    # The churn-blind emulation of the same outage: no drain semantics, the
    # node just stops making progress while blind dispatch keeps feeding it.
    blind_fleet = FleetSchedule(
        events=(
            FleetEvent(time=KILL_AT, action="set_capacity", node=0, capacity=1e-9),
            FleetEvent(
                time=RESTORE_AT, action="set_capacity", node=0, capacity=capacities[0]
            ),
        )
    ).scaled_to_time_units(time_unit)

    def build(policy, partitioner, fleet):
        return ClusterScalingBuild(
            classes,
            scaled,
            spec,
            num_nodes=NUM_NODES,
            policy=policy,
            dispatch_entropy=CONFIG.base_seed,
            capacities=capacities,
            partitioner=partitioner,
            fleet=fleet,
        )

    def sweep():
        aware = _replicate(
            build("weighted_jsq", "capacity", aware_fleet), RECONVERGENCE_REPLICATIONS
        )
        blind = _replicate(
            build("round_robin", "equal", blind_fleet), RECONVERGENCE_REPLICATIONS
        )
        return aware, blind

    aware, blind = benchmark.pedantic(sweep, rounds=1, iterations=1)

    segments = {
        "pre_kill": (CONFIG.measurement.warmup, KILL_AT),
        "disturbed": (KILL_AT, RESTORE_AT + RECOVERY_MARGIN),
        "recovered": (RESTORE_AT + RECOVERY_MARGIN, CONFIG.measurement.horizon),
    }
    print()
    stats = {}
    for label, summary in (("aware", aware), ("blind", blind)):
        ratios = {
            name: _segment_ratio(summary, lo, hi, time_unit)
            for name, (lo, hi) in segments.items()
        }
        unfinished = _unfinished(summary)
        system = summary.system_slowdown.mean
        stats[label] = (ratios, system, unfinished)
        print(
            f"  {label:<6} ratio pre={ratios['pre_kill']:.2f} "
            f"dist={ratios['disturbed']:.2f} rec={ratios['recovered']:.2f} "
            f"system={system:.1f} unfinished={unfinished}"
        )
        for name, value in ratios.items():
            benchmark.extra_info[f"churn_{label}_ratio_{name}"] = round(value, 3)
        benchmark.extra_info[f"churn_{label}_system_slowdown"] = round(system, 2)
        benchmark.extra_info[f"churn_{label}_unfinished"] = unfinished

    aware_ratios, aware_system, aware_unfinished = stats["aware"]
    blind_ratios, blind_system, blind_unfinished = stats["blind"]

    # The churn-aware fleet holds the fig. 2 band in *every* segment — the
    # controller re-converges within the bounded recovery window after both
    # the kill and the restore (and barely leaves the band in between: the
    # drain keeps the in-flight work finishing while partitioning
    # re-normalises over the survivor).
    for name, ratio in aware_ratios.items():
        assert 1.4 < ratio < 2.8, (name, ratio)
    assert abs(aware_ratios["recovered"] - aware_ratios["pre_kill"]) < 0.6, aware_ratios
    # Aware runs finish what they admit (the drained node completed its
    # queue; only the usual end-of-horizon stragglers remain).
    assert aware_unfinished < 0.01 * sum(
        sum(r.generated_counts) for r in aware.results
    ), aware_unfinished

    # The churn-blind baseline stalls: requests frozen on the dead node and
    # an overloaded slow node leave an order of magnitude more unfinished
    # work, a far larger system slowdown, and a ratio that never returns to
    # the target after the outage.
    assert blind_unfinished > 10 * max(aware_unfinished, 1), (
        blind_unfinished,
        aware_unfinished,
    )
    assert blind_system > 5.0 * aware_system, (blind_system, aware_system)
    assert abs(blind_ratios["recovered"] - 2.0) > 2 * abs(
        aware_ratios["recovered"] - 2.0
    ), (blind_ratios, aware_ratios)


@pytest.mark.benchmark(group="cluster")
def test_empty_fleet_schedule_bit_identical(benchmark):
    """The empty schedule must not perturb a single bit.

    One replication of the heterogeneous weighted_jsq cell (the same fleet
    the cluster-hetero bench pins), with ``fleet=None`` vs the empty
    ``FleetSchedule()``: dispatch decisions, rate history and per-class
    slowdowns must be *equal*, not approximately equal — the fleet machinery
    reduces to the pre-fleet arithmetic on a static cluster.
    """
    spec = PsdSpec.of(1, 2)
    classes = CONFIG.classes_for_load(LOAD, spec.deltas)
    scaled = CONFIG.scaled_measurement()
    capacities = resolve_capacities(MIX, NUM_NODES)

    def run(fleet):
        build = ClusterScalingBuild(
            classes,
            scaled,
            spec,
            num_nodes=NUM_NODES,
            policy="weighted_jsq",
            dispatch_entropy=CONFIG.base_seed,
            capacities=capacities,
            partitioner="capacity",
            fleet=fleet,
        )
        return _replicate(build)

    def both():
        return run(None), run(FleetSchedule())

    bare, empty = benchmark.pedantic(both, rounds=1, iterations=1)
    for bare_result, empty_result in zip(bare.results, empty.results):
        assert np.array_equal(empty_result.ledger.node, bare_result.ledger.node)
        assert empty_result.rate_history == bare_result.rate_history
        assert empty_result.per_class_mean_slowdowns() == bare_result.per_class_mean_slowdowns()
        assert empty_result.generated_counts == bare_result.generated_counts
    assert empty.per_class_slowdowns == bare.per_class_slowdowns
    assert empty.system_slowdown == bare.system_slowdown
