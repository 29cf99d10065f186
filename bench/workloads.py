"""The benchmark's four workloads, built from the experiments' picklable builds.

Each workload is one replication build plus the worker count it runs with.
Durations are in the paper's time units (multiples of the mean service
time) and scaled to raw time here, as the experiment modules do.  A round
of workload ``w`` under seed ``s`` replays ``SeedSequence((s, w, r))``, so
the same seed always gives the same replications.

Why these four (the README has the long form):

* ``paper_single`` - the paper's own traffic on one server; the generator
  dominates and it is the only workload that crosses the worker transport;
* ``cluster_jsq_hetero`` - backlog-dependent dispatch, whose scalar replay
  and member drains dominate;
* ``overload_quota`` - vectorised dispatch behind quota admission, the
  only workload that sheds;
* ``autoscale_diurnal`` - pre-drawn traces (no generator work), fleet
  events and an autoscaler at every window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import resolve_capacities
from repro.core.psd import PsdSpec
from repro.experiments.autoscale import AutoscaleBuild, default_patterns
from repro.experiments.cluster import ClusterScalingBuild
from repro.experiments.config import ExperimentConfig
from repro.simulation.monitor import MeasurementConfig

#: Replications per round: ten rounds make the paper's n = 100.
REPLICATIONS_PER_ROUND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    deltas: tuple[float, ...]
    upper_bound: float
    load: float
    warmup: float
    horizon: float
    window: float
    #: Replication worker processes for the untraced run (1 = serial).
    workers: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_single", (1.0, 2.0, 4.0), 100.0, 0.8, 5_000.0, 45_000.0, 1_000.0, 2),
        Workload("cluster_jsq_hetero", (1.0, 2.0), 10.0, 0.9, 2_000.0, 14_000.0, 500.0, 1),
        Workload("overload_quota", (1.0, 2.0), 10.0, 1.2, 2_000.0, 26_000.0, 500.0, 1),
        Workload("autoscale_diurnal", (1.0, 2.0), 10.0, 0.55, 2_000.0, 26_000.0, 500.0, 1),
    )
}


def round_seed(seed: int, workload: str, round_index: int) -> np.random.SeedSequence:
    """The seed tree root of one (workload, round) pair."""
    return np.random.SeedSequence((int(seed), list(WORKLOADS).index(workload), int(round_index)))


def make_build(workload: str, seed: int, round_index: int, *, scale: float = 1.0):
    """The replication build of one round; ``scale`` shortens warm-up and horizon.

    Dispatch and arrival-pattern streams are keyed by the round's seed, so
    two rounds never replay the same sample path.
    """
    w = WORKLOADS[workload]
    config = ExperimentConfig(
        measurement=MeasurementConfig(
            warmup=w.warmup * scale,
            horizon=w.horizon * scale,
            window=w.window,
            replications=REPLICATIONS_PER_ROUND,
        ),
        upper_bound=w.upper_bound,
    )
    spec = PsdSpec(w.deltas)
    measurement = config.scaled_measurement()
    entropy = int(round_seed(seed, workload, round_index).generate_state(1)[0])
    if workload == "paper_single":
        classes = config.classes_for_load(w.load, w.deltas)
        return ClusterScalingBuild(classes, measurement, spec)
    if workload == "cluster_jsq_hetero":
        classes = config.classes_for_load(w.load, w.deltas)
        return ClusterScalingBuild(
            classes,
            measurement,
            spec,
            num_nodes=4,
            policy="weighted_jsq",
            partitioner="capacity",
            capacities=resolve_capacities("2:1", 4),
            dispatch_entropy=entropy,
        )
    if workload == "overload_quota":
        classes = config.classes_for_load(w.load, w.deltas, allow_overload=True)
        return ClusterScalingBuild(
            classes,
            measurement,
            spec,
            num_nodes=2,
            policy="weighted_random",
            partitioner="capacity",
            capacities=resolve_capacities("2:1", 2),
            dispatch_entropy=entropy,
            admission="quota",
            admission_args=("quota_shares=0.45,0.45", "target_utilisation=0.95"),
        )
    if workload == "autoscale_diurnal":
        classes = config.classes_for_load(w.load, w.deltas)
        return AutoscaleBuild(
            classes,
            measurement,
            spec,
            num_nodes=8,
            capacities=tuple(1.0 / 8 for _ in range(8)),
            policy="weighted_jsq",
            partitioner="capacity",
            dispatch_entropy=entropy,
            pattern_entropy=entropy,
            patterns=default_patterns(measurement),
            initial_nodes=4,
            autoscaler="target_tracking",
            autoscaler_args=("target=1.15", "scale_in_cooldown=450"),
        )
    raise KeyError(workload)
