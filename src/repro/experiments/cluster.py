"""Cluster scaling: PSD fidelity when requests are dispatched across nodes.

The paper evaluates proportional slowdown differentiation on a single
serving substrate.  This experiment — an extension beyond the paper —
re-runs the PSD control loop over a :class:`~repro.cluster.ClusterServerModel`
and sweeps node count x dispatch policy at the highest configured load,
reporting how faithfully the achieved per-class slowdown ratios track the
single-server baseline.  Both the baseline and every cluster cell run under
the :class:`~repro.core.feedback.FeedbackPsdController`, so the measurement
answers the deployment question directly: does closing the feedback loop
over an entire cluster still deliver the specified differentiation?

Common random numbers: every cell replays the same per-class arrival
streams as the baseline (the scenario seeds are identical), and randomised
dispatch draws from its own stream derived from the experiment's base seed —
so the reported fidelity gap is the effect of clustering, not of sampling
noise between cells.

:class:`ClusterScalingBuild` is the one replication build of every
feedback-controlled run: this sweep, the overload sweep
(:mod:`repro.experiments.overload`, with admission), the autoscaling sweep
(:mod:`repro.experiments.autoscale`, with arrival patterns and an
autoscaler) and the ``--telemetry`` probe, which runs one scenario of it
with a live telemetry facade.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster import (
    FleetSchedule,
    build_admission,
    build_autoscaler,
    build_partitioner,
    make_cluster,
    mix_label,
    resolve_capacities,
)
from ..core.feedback import FeedbackPsdController
from ..core.psd import PsdSpec
from ..errors import ParameterError
from ..simulation.monitor import MeasurementConfig
from ..simulation.runner import ReplicationSummary
from ..simulation.scenario import Scenario, SimulationResult
from ..types import TrafficClass
from ..workload.patterns import pattern_sources
from .base import ExperimentResult, replicate
from .config import ExperimentConfig, get_preset

if TYPE_CHECKING:
    from ..telemetry import Telemetry

__all__ = ["ClusterScalingBuild", "run_cluster_scaling", "cluster_scaling"]


def _stream(entropy: int, index: int) -> np.random.SeedSequence:
    """A per-replication stream independent of the scenario seed."""
    return np.random.SeedSequence(entropy=(abs(int(entropy)), int(index)))


@dataclass(frozen=True)
class ClusterScalingBuild:
    """Picklable per-replication build of one feedback-controlled cell.

    ``num_nodes=None`` is the single-server baseline (the paper's idealised
    task servers, no cluster wrapper).  The dispatch stream of randomised
    policies is seeded from ``(dispatch_entropy, replication_index)`` —
    reproducible from the experiment's base seed, yet independent of the
    scenario seed so the class arrival streams stay identical to the
    baseline's (common random numbers).  Admission and autoscaler policies
    are carried as ``name + tokens`` and built fresh per replication inside
    :meth:`scenario`, so the build stays picklable and workers never share
    policy state.
    """

    classes: tuple[TrafficClass, ...]
    measurement: MeasurementConfig
    spec: PsdSpec
    num_nodes: int | None = None
    policy: str = "round_robin"
    dispatch_entropy: int = 0
    #: Absolute per-node capacities for a heterogeneous fleet (resolve a mix
    #: with :func:`repro.cluster.resolve_capacities` first); ``None`` keeps
    #: the homogeneous unconstrained nodes.
    capacities: tuple[float, ...] | None = None
    #: :data:`repro.cluster.PARTITIONERS` name; ``None`` uses the dispatch
    #: policy's preferred partitioner (equal split unless capacity-aware).
    partitioner: str | None = None
    #: Churn: a :class:`repro.cluster.FleetSchedule` already scaled to the
    #: measurement's raw time units; ``None`` keeps the fleet static.
    fleet: FleetSchedule | None = None
    #: Admission policy registry name (:data:`repro.cluster.
    #: ADMISSION_POLICIES`) plus its ``key=value`` argument tokens.
    admission: str | None = None
    admission_args: tuple[str, ...] = ()
    #: Arrival-pattern sequence (frozen dataclasses, times in raw units)
    #: replayed as pre-drawn :func:`repro.workload.pattern_sources` traces
    #: seeded from ``(pattern_entropy, replication_index)``, so every cell
    #: replays the identical sample path per replication; an empty tuple
    #: runs the classes' stationary rates as a trace.  ``None`` draws
    #: Poisson streams from the scenario seed.
    patterns: tuple | None = None
    pattern_entropy: int = 0
    #: Nodes live at t=0; the rest start down (autoscaler inventory).
    #: ``None`` starts the whole fleet live.  Excludes ``fleet``.
    initial_nodes: int | None = None
    #: Autoscaler registry name (:data:`repro.cluster.AUTOSCALERS`) plus
    #: its ``key=value`` argument tokens.
    autoscaler: str | None = None
    autoscaler_args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.fleet is not None and self.initial_nodes is not None:
            raise ParameterError("set either fleet or initial_nodes, not both")

    def __call__(self, index: int, seed: np.random.SeedSequence) -> SimulationResult:
        return self.scenario(index, seed).run()

    def scenario(
        self, index: int, seed: np.random.SeedSequence, telemetry: Telemetry | None = None
    ) -> Scenario:
        """The replication's scenario; ``telemetry`` is :class:`Scenario`'s own."""
        server = None
        if self.num_nodes is not None:
            fleet = self.fleet
            if self.initial_nodes is not None and self.initial_nodes < self.num_nodes:
                fleet = FleetSchedule(initial_down=tuple(range(self.initial_nodes, self.num_nodes)))
            server = make_cluster(
                self.num_nodes,
                self.policy,
                capacities=self.capacities,
                partitioner=None
                if self.partitioner is None
                else build_partitioner(self.partitioner),
                seed=_stream(self.dispatch_entropy, index),
                fleet=fleet,
            )
        sources = None
        if self.patterns is not None:
            sources = pattern_sources(
                self.classes,
                self.patterns,
                horizon=self.measurement.horizon,
                seed=_stream(self.pattern_entropy, index),
            )
        return Scenario(
            self.classes,
            self.measurement,
            server=server,
            controller=FeedbackPsdController(self.classes, self.spec),
            seed=seed,
            sources=sources,
            admission=None
            if self.admission is None
            else build_admission(self.admission, self.admission_args),
            autoscaler=None
            if self.autoscaler is None
            else build_autoscaler(self.autoscaler, self.autoscaler_args),
            telemetry=telemetry,
        )


#: Dispatch policy x rate partitioner pairings run for every heterogeneous
#: capacity mix, from capacity-blind to fully capacity-aware.
HETERO_CELLS: tuple[tuple[str, str], ...] = (
    ("round_robin", "equal"),
    ("weighted_random", "backlog"),
    ("weighted_jsq", "capacity"),
    ("fastest_available", "capacity"),
)

#: Dispatch x partitioner pairings run through the churn section when the
#: config carries ``fleet_events`` — the fully re-normalising pairing, a
#: backlog-driven one, and the static-minded baseline.
CHURN_CELLS: tuple[tuple[str, str], ...] = (
    ("weighted_jsq", "capacity"),
    ("jsq", "backlog"),
    ("round_robin", "equal"),
)


def run_cluster_scaling(
    config: ExperimentConfig,
    *,
    deltas: Sequence[float] = (1.0, 2.0),
    load: float | None = None,
    experiment_id: str = "cluster",
    title: str = "Cluster scaling: slowdown-ratio fidelity vs the single server",
) -> ExperimentResult:
    """Sweep node count x dispatch policy against the single-server baseline.

    Two sections share one table: the homogeneous sweep (node grid x dispatch
    policy, uniform unconstrained nodes) and the heterogeneous sweep (every
    non-uniform capacity mix of ``config.capacity_mixes``, each run under the
    :data:`HETERO_CELLS` dispatch/partitioner pairings so capacity-blind and
    capacity-aware configurations face the same fleet).
    """
    spec = PsdSpec(tuple(float(d) for d in deltas))
    n = spec.num_classes
    load = max(config.load_grid) if load is None else float(load)
    classes = config.classes_for_load(load, spec.deltas)
    scaled = config.scaled_measurement()

    columns = ["nodes", "policy", "partitioner", "mix", "fleet"]
    columns.extend(f"slowdown_{i}" for i in range(1, n + 1))
    columns.extend(f"ratio_{i}" for i in range(2, n + 1))
    columns.extend(["worst_rel_error", "system_slowdown"])

    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "deltas": tuple(spec.deltas),
            "load": load,
            "node_grid": tuple(config.cluster_nodes),
            "policies": tuple(config.dispatch_policies),
            "capacity_mixes": tuple(
                mix_label(mix) for mix in config.capacity_mixes
            ),
            "fleet_events": tuple(config.fleet_events),
            "replications": config.measurement.replications,
            "preset": config.name,
        },
        columns=tuple(columns),
    )

    def add_row(
        nodes: object,
        policy: str,
        summary: ReplicationSummary,
        baseline_ratios,
        *,
        partitioner: str = "-",
        mix: str = "uniform",
        fleet: str = "static",
    ):
        ratios = summary.ratio_of_mean_slowdowns
        row: dict[str, object] = {
            "nodes": nodes,
            "policy": policy,
            "partitioner": partitioner,
            "mix": mix,
            "fleet": fleet,
        }
        for i, slowdown in enumerate(summary.mean_slowdowns, start=1):
            row[f"slowdown_{i}"] = slowdown
        worst = 0.0
        for i in range(1, n):
            row[f"ratio_{i + 1}"] = ratios[i]
            if baseline_ratios is not None and baseline_ratios[i] > 0:
                worst = max(worst, abs(ratios[i] - baseline_ratios[i]) / baseline_ratios[i])
        row["worst_rel_error"] = worst if baseline_ratios is not None else 0.0
        row["system_slowdown"] = summary.system_slowdown.mean
        result.add_row(**row)
        return ratios

    # Resolve the churn section's fleet geometry up front — the same fleet
    # as the heterogeneous sweep's first non-uniform mix (churn over unequal
    # nodes is the harder re-normalisation problem), or the uniform fleet
    # when the config sweeps none — and validate the schedule against it
    # *before* any replication runs, so a bad --fleet-events node index
    # fails in seconds instead of after the whole static sweep.
    hetero_nodes = max(config.cluster_nodes)
    schedule = config.fleet_schedule()
    churn_nodes, churn_capacities, churn_mix = hetero_nodes, None, "uniform"
    for mix in config.capacity_mixes:
        size = len(mix) if not isinstance(mix, str) else hetero_nodes
        capacities = resolve_capacities(mix, size)
        if capacities is not None:
            churn_nodes, churn_capacities, churn_mix = size, capacities, mix_label(mix)
            break
    if schedule is not None:
        schedule.validate_for(churn_nodes)

    def cell(**fields) -> ReplicationSummary:
        # Every cell replays the baseline's scenario and dispatch seeds.
        build = ClusterScalingBuild(
            classes, scaled, spec, dispatch_entropy=config.base_seed, **fields
        )
        return replicate(build, config)

    baseline_ratios = add_row("single", "-", cell(), None)

    for nodes in config.cluster_nodes:
        for policy in config.dispatch_policies:
            add_row(nodes, policy, cell(num_nodes=nodes, policy=policy), baseline_ratios)

    for mix in config.capacity_mixes:
        nodes = len(mix) if not isinstance(mix, str) else hetero_nodes
        capacities = resolve_capacities(mix, nodes)
        if capacities is None:
            continue  # uniform: already covered by the homogeneous sweep
        for policy, partitioner in HETERO_CELLS:
            summary = cell(
                num_nodes=nodes, policy=policy, capacities=capacities, partitioner=partitioner
            )
            add_row(
                nodes, policy, summary, baseline_ratios, partitioner=partitioner, mix=mix_label(mix)
            )

    if schedule is not None:
        # Churn section, on the fleet geometry resolved (and validated
        # against the schedule) before the sweeps above.
        scaled_schedule = schedule.scaled_to_time_units(
            config.service_distribution().mean()
        )
        for policy, partitioner in CHURN_CELLS:
            summary = cell(
                num_nodes=churn_nodes,
                policy=policy,
                capacities=churn_capacities,
                partitioner=partitioner,
                fleet=scaled_schedule,
            )
            add_row(
                churn_nodes,
                policy,
                summary,
                baseline_ratios,
                partitioner=partitioner,
                mix=churn_mix,
                fleet=schedule.spec(),
            )
        result.notes.append(
            f"Churn rows (fleet != static) apply the event timeline "
            f"'{schedule.spec()}' (times in abstract time units) mid-run: "
            "leaving nodes drain their queues before going down, joining "
            "nodes re-enter dispatch and rate partitioning at the event "
            "time, and set_capacity degrades/recovers a node in place.  The "
            "re-normalising pairings (weighted_jsq + capacity, jsq + "
            "backlog) re-converge to the static ratio bands after each "
            "event; the static-minded round_robin + equal split keeps "
            "feeding the degraded/overloaded nodes and drifts."
        )

    result.notes.append(
        "Expected shape: with homogeneous nodes every dispatch policy keeps the "
        "achieved slowdown ratios close to the single-server baseline (the "
        "slowdown metric is invariant under the equal rate split); "
        "backlog-aware dispatch (jsq, least_work) additionally lowers the "
        "absolute slowdowns at high load by pooling the nodes' queues."
    )
    result.notes.append(
        "worst_rel_error is the largest relative deviation of any achieved "
        "class ratio from the single-server baseline ratio under common "
        "random numbers."
    )
    result.notes.append(
        "Heterogeneous rows (mix != uniform) fix the fleet's total capacity at "
        "the single server's and vary how it is spread across nodes (2:1 = "
        "first half of the fleet twice as fast; pow2 = each node twice as fast "
        "as the next).  Capacity-blind dispatch+partitioning (round_robin + "
        "equal split) overloads the slow nodes and visibly degrades both the "
        "absolute slowdowns and the achieved ratios; the capacity-aware cells "
        "(weighted_jsq / fastest_available + capacity-proportional rates) "
        "restore the single-server fidelity."
    )
    return result


def cluster_scaling(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Cluster extension: node count x dispatch policy at the highest load."""
    config = config or get_preset("default")
    return run_cluster_scaling(config)
