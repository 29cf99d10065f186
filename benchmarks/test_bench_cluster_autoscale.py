"""Autoscaling frontier: SLO fidelity vs node-hours under moving load.

Paper extension: the evaluation holds capacity fixed; real platforms size
the fleet to demand.  An 8-node fleet (each node an eighth of the single
server's capacity) is offered the two-class workload at mean system load
0.55, shaped by a diurnal cycle (amplitude 0.5, two periods over the
measured interval) with a flash crowd (x2 for two estimation windows) at
60% of the span.  The bench contrasts two ways of paying for that load:

* **static**: the full peak-sized fleet runs around the clock.  It holds
  the fig. 2 slowdown-ratio band and pays full freight.
* **target-tracking autoscaler** (``target=1.15, scale_in_cooldown=450``):
  starts at half fleet, reads the windowed monitor surface at estimation
  boundaries, and walks join/leave fleet events through warm-up and
  drain.  The claim pinned here: it *also* holds the ratio band while
  billing >= 25% fewer node-hours (draining nodes still paid for).

A second test pins the contract that makes the frontier trustworthy: the
scale decisions are deterministic — fleet timelines and autoscale event
streams are *bit-identical* between a serial run and ``workers=2``.
"""

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.experiments import (
    AutoscaleBuild,
    ExperimentConfig,
    default_patterns,
    run_autoscale,
)
from repro.simulation import MeasurementConfig, ReplicationRunner

NUM_NODES = 8
#: Nodes live at t=0 for the scaled cell (half fleet; the rest are spares).
INITIAL_NODES = 4
#: Mean system load before pattern shaping; the diurnal peak + flash crowd
#: push the instantaneous load well above it.
LOAD = 0.55
#: Tuned operating point: a demand target slightly above nominal capacity
#: (the drain-backlog term inflates demand) and a scale-in cooldown of
#: ~3 estimation windows so the trough is tracked without join/leave flapping.
AUTOSCALER = "target_tracking"
AUTOSCALER_ARGS = ("target=1.15", "scale_in_cooldown=450")

#: Moderate-tail workload (upper bound 10): pooled mean slowdowns converge
#: within the horizon, keeping the band assertions tight.
CONFIG = ExperimentConfig(
    measurement=MeasurementConfig(
        warmup=2_000.0, horizon=14_000.0, window=500.0, replications=4
    ),
    load_grid=(0.9,),  # unused: the autoscale classes are built explicitly
    upper_bound=10.0,
    name="cluster-autoscale-bench",
)


@pytest.mark.benchmark(group="cluster")
def test_autoscale_frontier_vs_static_fleet(benchmark):
    config = CONFIG.with_autoscaler(AUTOSCALER, AUTOSCALER_ARGS)

    result = benchmark.pedantic(
        lambda: run_autoscale(
            config, load=LOAD, num_nodes=NUM_NODES, initial_nodes=INITIAL_NODES
        ),
        rounds=1,
        iterations=1,
    )

    assert [row["autoscaler"] for row in result.rows] == ["static", AUTOSCALER]
    static, scaled = result.rows

    print()
    print(
        f"  static ratio={static['ratio_2']:.2f} "
        f"node_hours={static['node_hours']:.0f} system={static['system_slowdown']:.1f}"
    )
    print(
        f"  {AUTOSCALER} ratio={scaled['ratio_2']:.2f} "
        f"node_hours={scaled['node_hours']:.0f} saving={scaled['saving']:.3f} "
        f"out={scaled['scale_out']} in={scaled['scale_in']} "
        f"system={scaled['system_slowdown']:.1f}"
    )
    benchmark.extra_info["autoscale_static_ratio"] = round(static["ratio_2"], 3)
    benchmark.extra_info["autoscale_static_node_hours"] = round(static["node_hours"], 1)
    benchmark.extra_info["autoscale_scaled_ratio"] = round(scaled["ratio_2"], 3)
    benchmark.extra_info["autoscale_scaled_node_hours"] = round(scaled["node_hours"], 1)
    benchmark.extra_info["autoscale_saving"] = round(scaled["saving"], 4)
    benchmark.extra_info["autoscale_scale_out"] = scaled["scale_out"]
    benchmark.extra_info["autoscale_scale_in"] = scaled["scale_in"]
    benchmark.extra_info["autoscale_system_slowdown"] = round(
        scaled["system_slowdown"], 2
    )

    # Sanity: the moving workload itself honours the paper's differentiation
    # — the static peak fleet's achieved ratio sits inside the fig. 2 band.
    assert 1.4 < static["ratio_2"] < 2.8, static["ratio_2"]
    # The frontier claim, axis 1: scaling must not break the PSD loop.
    assert 1.4 < scaled["ratio_2"] < 2.8, scaled["ratio_2"]
    # Axis 2: the scaler bills at least 25% fewer node-hours than static.
    assert scaled["saving"] >= 0.25, scaled["saving"]
    assert scaled["node_hours"] <= 0.75 * static["node_hours"]
    # The savings come from real scale activity in both directions (the
    # trough is tracked down, the peak and the flash crowd are re-grown).
    assert scaled["scale_out"] > 0 and scaled["scale_in"] > 0
    # The static baseline never scales and its saving is 0 by definition.
    assert static["scale_out"] == static["scale_in"] == 0
    assert static["saving"] == 0.0


def _build() -> AutoscaleBuild:
    spec = PsdSpec.of(1, 2)
    scaled = CONFIG.scaled_measurement()
    return AutoscaleBuild(
        CONFIG.classes_for_load(LOAD, spec.deltas),
        scaled,
        spec,
        num_nodes=NUM_NODES,
        capacities=tuple(1.0 / NUM_NODES for _ in range(NUM_NODES)),
        policy="weighted_jsq",
        partitioner="capacity",
        dispatch_entropy=CONFIG.base_seed,
        pattern_entropy=CONFIG.base_seed,
        patterns=default_patterns(scaled),
        initial_nodes=INITIAL_NODES,
        autoscaler=AUTOSCALER,
        autoscaler_args=AUTOSCALER_ARGS,
    )


@pytest.mark.benchmark(group="cluster")
def test_autoscale_fleet_timeline_worker_identical(benchmark):
    """Scale decisions on worker processes must not perturb a single bit.

    The same scaled cell, serial vs ``workers=2``: every replication's
    autoscale event stream, fleet timeline, generated counts and slowdown
    statistics must be *equal*, not approximately equal — the policy reads
    only the windowed monitor surface, so process placement is invisible.
    """

    def both():
        serial = ReplicationRunner(
            replications=CONFIG.measurement.replications,
            base_seed=np.random.SeedSequence(entropy=CONFIG.base_seed),
            workers=1,
        ).run(_build())
        parallel = ReplicationRunner(
            replications=CONFIG.measurement.replications,
            base_seed=np.random.SeedSequence(entropy=CONFIG.base_seed),
            workers=2,
        ).run(_build())
        return serial, parallel

    serial, parallel = benchmark.pedantic(both, rounds=1, iterations=1)

    assert parallel.per_class_slowdowns == serial.per_class_slowdowns
    assert parallel.system_slowdown == serial.system_slowdown
    any_events = False
    for parallel_result, serial_result in zip(parallel.results, serial.results):
        assert parallel_result.autoscale_events == serial_result.autoscale_events
        assert parallel_result.fleet_timeline == serial_result.fleet_timeline
        assert parallel_result.generated_counts == serial_result.generated_counts
        assert parallel_result.per_class_mean_slowdowns() == (
            serial_result.per_class_mean_slowdowns()
        )
        any_events = any_events or bool(parallel_result.autoscale_events)
    assert any_events, "no replication ever scaled"
