"""Heterogeneous cluster: capacity-aware vs capacity-blind at load 0.9.

Paper extension: the PSD feedback loop over a fleet whose nodes differ in
speed.  A two-node 2:1 capacity mix (same total capacity as the paper's
single server) serves the two-class workload at system load 0.9 under the
feedback controller, and the bench contrasts three configurations:

* the single-server baseline (the paper's model, common random numbers);
* **capacity-aware**: ``weighted_jsq`` dispatch + ``CapacityProportional``
  rate partitioning — requests and rates both arrive in proportion to node
  speed, so each node is a capacity-scaled replica of the single server and
  the achieved slowdown ratio stays within the fig. 2 tolerance band;
* **capacity-blind**: ``round_robin`` + ``EqualSplit`` on the *same* fleet —
  the slow node is handed more rate than it can physically serve and half
  the requests, so it overloads and the achieved slowdowns/tails visibly
  degrade.

A final check pins the compatibility contract: explicit homogeneous
capacities reproduce the capacity-less cluster bit for bit.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster, resolve_capacities
from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild, ExperimentConfig
from repro.simulation import MeasurementConfig, ReplicationRunner, Scenario

NUM_NODES = 2
MIX = "2:1"
LOAD = 0.9

#: (label, dispatch policy, partitioner-registry name, capacity mix).
CELLS = (
    ("aware", "weighted_jsq", "capacity", MIX),
    ("blind", "round_robin", "equal", MIX),
)

#: Same trimmed protocol as the cluster-dispatch bench: enough horizon for
#: the feedback loop to settle, replication-averaged ratios for assertions.
CONFIG = ExperimentConfig(
    measurement=MeasurementConfig(
        warmup=3_000.0, horizon=20_000.0, window=1_000.0, replications=4
    ),
    load_grid=(LOAD,),
    name="cluster-hetero-bench",
)


def _replicate(build):
    runner = ReplicationRunner(
        replications=CONFIG.measurement.replications,
        base_seed=np.random.SeedSequence(entropy=CONFIG.base_seed),
        workers=1,
    )
    return runner.run(build)


def _pooled_p95(summary) -> float:
    slowdowns = np.concatenate(
        [result.ledger.slowdowns(result.measured_ids()) for result in summary.results]
    )
    return float(np.percentile(slowdowns, 95))


@pytest.mark.benchmark(group="cluster")
def test_cluster_heterogeneous_capacity_awareness(benchmark):
    spec = PsdSpec.of(1, 2)
    classes = CONFIG.classes_for_load(LOAD, spec.deltas)
    scaled = CONFIG.scaled_measurement()

    def sweep():
        baseline = _replicate(
            ClusterScalingBuild(
                classes, scaled, spec, dispatch_entropy=CONFIG.base_seed
            )
        )
        cells = {}
        for label, policy, partitioner, mix in CELLS:
            cells[label] = _replicate(
                ClusterScalingBuild(
                    classes,
                    scaled,
                    spec,
                    num_nodes=NUM_NODES,
                    policy=policy,
                    dispatch_entropy=CONFIG.base_seed,
                    capacities=resolve_capacities(mix, NUM_NODES),
                    partitioner=partitioner,
                )
            )
        return baseline, cells

    baseline, cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_ratio = baseline.ratio_of_mean_slowdowns[1]
    print()
    print(
        f"  single server: ratio {base_ratio:.2f}, "
        f"system {baseline.system_slowdown.mean:.1f}, p95 {_pooled_p95(baseline):.1f}"
    )
    stats = {}
    for label, summary in cells.items():
        ratio = summary.ratio_of_mean_slowdowns[1]
        system = summary.system_slowdown.mean
        p95 = _pooled_p95(summary)
        stats[label] = (ratio, system, p95)
        print(
            f"  {label:<6} ({MIX} mix)   ratio={ratio:.2f} "
            f"system={system:.1f} p95={p95:.1f}"
        )
        benchmark.extra_info[f"hetero_{label}_ratio"] = round(ratio, 3)
        benchmark.extra_info[f"hetero_{label}_system_slowdown"] = round(system, 2)
        benchmark.extra_info[f"hetero_{label}_p95"] = round(p95, 1)
    benchmark.extra_info["single_server_ratio"] = round(base_ratio, 3)

    aware_ratio, aware_system, aware_p95 = stats["aware"]
    blind_ratio, blind_system, blind_p95 = stats["blind"]

    # Capacity-aware dispatch+partitioning holds the differentiation target
    # within the same band the fig. 2 effectiveness bench asserts for the
    # single server, and tracks the baseline under common random numbers.
    assert 1.2 < aware_ratio < 3.2, aware_ratio
    assert 0.5 < aware_ratio / base_ratio < 1.6, (aware_ratio, base_ratio)

    # Capacity-blind EqualSplit on the same fleet visibly misses: the slow
    # node (one third of the fleet's speed, handed half the rate and half
    # the requests) runs at local load ~1.35, so its queue diverges over the
    # horizon and both the absolute slowdowns and the tail blow up.
    assert blind_system > 2.0 * aware_system, (blind_system, aware_system)
    assert blind_p95 > 2.0 * aware_p95, (blind_p95, aware_p95)
    # ... and the achieved ratio drifts further from the target of 2 than
    # the capacity-aware configuration's.
    assert abs(blind_ratio - 2.0) > abs(aware_ratio - 2.0), (blind_ratio, aware_ratio)


@pytest.mark.benchmark(group="cluster")
def test_homogeneous_capacities_bit_identical(benchmark):
    """Explicit uniform capacities must not perturb a single bit.

    One replication of the 2-node round-robin cluster, with and without
    ``capacities=(1.0, 1.0)``: dispatch decisions, rate history and
    per-class slowdowns must be *equal*, not approximately equal — the
    capacity machinery reduces to the capacity-blind arithmetic on a
    homogeneous fleet.
    """
    spec = PsdSpec.of(1, 2)
    classes = CONFIG.classes_for_load(LOAD, spec.deltas)
    scaled = CONFIG.scaled_measurement()

    def run(capacities):
        server = make_cluster(NUM_NODES, "round_robin", capacities=capacities)
        result = Scenario(classes, scaled, server=server, spec=spec, seed=CONFIG.base_seed).run()
        return server, result

    def both():
        return run(None), run((1.0, 1.0))

    (bare_server, bare), (cap_server, capped) = benchmark.pedantic(both, rounds=1, iterations=1)
    assert np.array_equal(cap_server.ledger.node, bare_server.ledger.node)
    assert capped.per_class_mean_slowdowns() == bare.per_class_mean_slowdowns()
    assert capped.rate_history == bare.rate_history
    assert capped.generated_counts == bare.generated_counts
