"""Overload survival: quota-aware admission vs an admission-blind cluster.

The PSD allocation has no answer to sustained load > 1 — Sec. 5's related
work pairs differentiated scheduling with admission control precisely
because a scheduler alone cannot shed work.  This experiment (an extension
beyond the paper) offers more traffic than the fleet can serve and compares
a cluster defended by the quota-reserve
:class:`~repro.cluster.AdmissionController` against the same cluster with
no admission at all, on a heterogeneous 2:1 fleet under the
capacity-aware dispatch pairing.

The claim pinned by ``benchmarks/test_bench_cluster_overload.py``: at load
1.2 the quota-aware cluster holds the fig. 2 slowdown-ratio band for its
*admitted* traffic with a bounded shed fraction, while the admission-blind
cluster's queues diverge (unfinished requests orders of magnitude higher)
and its measured ratios drown in the backlog.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..cluster import resolve_capacities
from ..core.psd import PsdSpec
from ..simulation.runner import ReplicationSummary
from .base import ExperimentResult, replicate
from .cluster import ClusterScalingBuild
from .config import ExperimentConfig, get_preset

__all__ = ["run_overload", "overload"]

#: Offered system loads swept by the experiment: just below capacity, at the
#: brink, and firmly past it.
OVERLOAD_LOADS: tuple[float, ...] = (0.95, 1.05, 1.2)

#: Default quota-controller argument tokens for the two-class workload:
#: 45% reserve per class, a 10% shared overflow pool.
DEFAULT_QUOTA_ARGS: tuple[str, ...] = ("quota_shares=0.45,0.45",)


def _unfinished(summary: ReplicationSummary) -> int:
    """Requests admitted but never completed, summed over replications."""
    return sum(
        sum(r.generated_counts) - sum(r.completed_counts) - sum(r.rejected_counts)
        for r in summary.results
    )


def _shed_fraction(summary: ReplicationSummary) -> float:
    generated = sum(sum(r.generated_counts) for r in summary.results)
    shed = sum(sum(r.rejected_counts) for r in summary.results)
    return shed / generated if generated else 0.0


def _degraded_fraction(summary: ReplicationSummary) -> float:
    generated = sum(sum(r.generated_counts) for r in summary.results)
    degraded = sum(sum(r.degraded_counts) for r in summary.results)
    return degraded / generated if generated else 0.0


def run_overload(
    config: ExperimentConfig,
    *,
    deltas: Sequence[float] = (1.0, 2.0),
    loads: Sequence[float] = OVERLOAD_LOADS,
    num_nodes: int = 2,
    mix: str = "2:1",
    policy: str = "weighted_jsq",
    partitioner: str = "capacity",
    experiment_id: str = "overload",
    title: str = "Overload survival: quota-aware shedding vs an admission-blind cluster",
) -> ExperimentResult:
    """Sweep offered load past capacity, with and without admission control.

    The admission cell uses ``config.admission`` when set (so ``--admission``
    / ``--admission-args`` steer this experiment) and the quota controller
    with :data:`DEFAULT_QUOTA_ARGS` otherwise.
    """
    spec = PsdSpec(tuple(float(d) for d in deltas))
    n = spec.num_classes
    scaled = config.scaled_measurement()
    capacities = resolve_capacities(mix, num_nodes)
    admission = config.admission or "quota"
    admission_args = config.admission_args if config.admission else DEFAULT_QUOTA_ARGS

    columns = ["load", "admission"]
    columns.extend(f"slowdown_{i}" for i in range(1, n + 1))
    columns.extend(f"ratio_{i}" for i in range(2, n + 1))
    columns.extend(["shed_fraction", "degraded_fraction", "unfinished", "system_slowdown"])

    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "deltas": tuple(spec.deltas),
            "loads": tuple(float(load) for load in loads),
            "nodes": num_nodes,
            "mix": mix,
            "policy": policy,
            "partitioner": partitioner,
            "admission": admission,
            "admission_args": tuple(admission_args),
            "replications": config.measurement.replications,
            "preset": config.name,
        },
        columns=tuple(columns),
    )

    for load in loads:
        classes = config.classes_for_load(float(load), spec.deltas, allow_overload=True)
        for label, name, args in (
            (admission, admission, tuple(admission_args)),
            ("none", None, ()),
        ):
            build = ClusterScalingBuild(
                classes,
                scaled,
                spec,
                num_nodes=num_nodes,
                policy=policy,
                dispatch_entropy=config.base_seed,
                capacities=capacities,
                partitioner=partitioner,
                admission=name,
                admission_args=args,
            )
            summary = replicate(build, config)
            ratios = summary.ratio_of_mean_slowdowns
            row: dict[str, object] = {"load": float(load), "admission": label}
            for i, slowdown in enumerate(summary.mean_slowdowns, start=1):
                row[f"slowdown_{i}"] = slowdown
            for i in range(1, n):
                row[f"ratio_{i + 1}"] = ratios[i]
            row["shed_fraction"] = _shed_fraction(summary)
            row["degraded_fraction"] = _degraded_fraction(summary)
            row["unfinished"] = _unfinished(summary)
            row["system_slowdown"] = summary.system_slowdown.mean
            result.add_row(**row)

    result.notes.append(
        "Slowdowns and ratios measure *admitted* traffic only — shed "
        "requests never enter service, so the quota rows report the service "
        "the cluster actually delivered.  shed_fraction / degraded_fraction "
        "are shares of all generated requests; unfinished counts admitted "
        "requests still queued at the horizon, summed over replications."
    )
    result.notes.append(
        "Expected shape: past load 1 the admission-blind rows accumulate "
        "unbounded backlog (unfinished explodes, slowdowns grow with the "
        "horizon instead of converging), while the quota rows shed the "
        "excess at bounded fractions and keep the achieved ratio near the "
        "specified delta ratio."
    )
    return result


def overload(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Overload extension: offered load past capacity, admission on vs off."""
    config = config or get_preset("default")
    return run_overload(config)
