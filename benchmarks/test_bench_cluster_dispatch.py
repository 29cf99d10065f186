"""Cluster dispatch policies at moderate and high load (paper extension).

Not tied to a paper figure: the cluster subsystem dispatches the paper's
workload across four homogeneous nodes and the bench compares every bundled
dispatch policy at system loads 0.5 and 0.9, under the same feedback
controller the ``cluster`` experiment uses.  The assertions pin down the
qualitative claims the subsystem makes:

* differentiation survives clustering — per-class slowdown ratios stay
  within the same tolerance band the single-server effectiveness bench
  (fig. 2) asserts, for every policy;
* backlog-aware dispatch pays — join-shortest-queue beats weighted-random
  on the p95 request slowdown at load 0.9 (queue pooling shrinks the tail).
"""

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild, ExperimentConfig
from repro.simulation import MeasurementConfig, ReplicationRunner

NUM_NODES = 4
POLICIES = ("round_robin", "weighted_random", "jsq", "least_work", "affinity")

#: A trimmed protocol: half the figure-bench horizon over two loads keeps the
#: whole sweep (2 loads x (1 baseline + 5 policies) cells) near one figure
#: bench's cost; replication-averaged ratios are what the assertions use.
CONFIG = ExperimentConfig(
    measurement=MeasurementConfig(
        warmup=3_000.0, horizon=20_000.0, window=1_000.0, replications=4
    ),
    load_grid=(0.5, 0.9),
    name="cluster-bench",
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
def test_cluster_dispatch_policies(benchmark):
    spec = PsdSpec.of(1, 2)

    def sweep():
        data = {}
        for load in CONFIG.load_grid:
            classes = CONFIG.classes_for_load(load, spec.deltas)
            scaled = CONFIG.scaled_measurement()
            baseline = _replicate(
                ClusterScalingBuild(
                    classes, scaled, spec, dispatch_entropy=CONFIG.base_seed
                )
            )
            cells = {}
            for policy in POLICIES:
                summary = _replicate(
                    ClusterScalingBuild(
                        classes,
                        scaled,
                        spec,
                        num_nodes=NUM_NODES,
                        policy=policy,
                        dispatch_entropy=CONFIG.base_seed,
                    )
                )
                cells[policy] = summary
            data[load] = (baseline, cells)
        return data

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    for load, (baseline, cells) in data.items():
        base_ratio = baseline.ratio_of_mean_slowdowns[1]
        print(
            f"  load {load}: single-server ratio {base_ratio:.2f}, "
            f"p95 {_pooled_p95(baseline):.1f}"
        )
        for policy, summary in cells.items():
            ratio = summary.ratio_of_mean_slowdowns[1]
            print(
                f"    {policy:<16} slowdowns="
                f"({summary.mean_slowdowns[0]:.2f}, {summary.mean_slowdowns[1]:.2f}) "
                f"ratio={ratio:.2f} p95={_pooled_p95(summary):.1f}"
            )

    for load, (baseline, cells) in data.items():
        ratios = [cells[p].ratio_of_mean_slowdowns[1] for p in POLICIES]
        # Same spacing tolerance the fig. 2 effectiveness bench asserts for
        # the single server: class 2 slower in the (large) majority of
        # cells, average spacing near the target of 2.
        assert sum(r > 1.0 for r in ratios) >= len(ratios) - 1, (load, ratios)
        assert 1.2 < sum(ratios) / len(ratios) < 3.2, (load, ratios)

        # Fidelity to the single-server baseline under common random
        # numbers, again with fig. 2's two-level agreement band.
        base_ratio = baseline.ratio_of_mean_slowdowns[1]
        agreement = [r / base_ratio for r in ratios]
        assert 0.5 < sum(agreement) / len(agreement) < 1.6, (load, agreement)
        assert all(0.2 < a < 3.5 for a in agreement), (load, agreement)

    # Queue pooling: JSQ's tail beats random dispatch under heavy load.
    _, high_cells = data[0.9]
    assert _pooled_p95(high_cells["jsq"]) <= _pooled_p95(high_cells["weighted_random"])
