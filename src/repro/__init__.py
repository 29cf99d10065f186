"""repro — Proportional Slowdown Differentiation (PSD) on Internet servers.

A reproduction of "Processing Rate Allocation for Proportional Slowdown
Differentiation on Internet Servers" (Xiaobo Zhou, Jianbin Wei, Cheng-Zhong
Xu — IPDPS 2004), built as a reusable library:

* :mod:`repro.distributions` — heavy-tailed (Bounded Pareto) and reference
  service-time distributions with the moments the analysis needs.
* :mod:`repro.queueing` — M/G/1, M/G_B/1, M/D/1 and M/M/1 closed forms
  (Lemma 1, Lemma 2, Theorem 1, Eq. 15 of the paper).
* :mod:`repro.core` — the PSD model (Eq. 16), the processing-rate allocation
  (Eq. 17), expected slowdowns (Eq. 18), load estimation and the adaptive
  controller.
* :mod:`repro.scheduling` — GPS/WFQ/SFQ/lottery/DRR/priority schedulers that
  realise rate allocation on a single shared processor.
* :mod:`repro.simulation` — the discrete-event simulation: a composable
  :class:`Scenario` assembly over pluggable :class:`ServerModel` substrates
  (the idealised Fig. 1 task servers, a scheduler-driven shared processor)
  plus a serial/parallel :class:`ReplicationRunner`.
* :mod:`repro.cluster` — the multi-node serving substrate:
  :class:`ClusterServerModel` dispatches requests across N member
  :class:`RateScalableServers` nodes through pluggable dispatch policies
  (round-robin, weighted random, join-shortest-queue, least-work-left,
  class affinity) and fans the controller's rate allocation out via rate
  partitioners.
* :mod:`repro.workload`, :mod:`repro.metrics`, :mod:`repro.experiments` —
  workload factories, evaluation statistics, and drivers regenerating every
  figure of the paper's evaluation.

Quickstart
----------
>>> from repro import (BoundedPareto, PsdSpec, TrafficClass,
...                    allocate_rates, expected_slowdowns)
>>> service = BoundedPareto.paper_default()
>>> classes = [TrafficClass("gold", 1.0, service, delta=1.0),
...            TrafficClass("silver", 1.0, service, delta=2.0)]
>>> allocation = allocate_rates(classes, PsdSpec.of(1, 2))
>>> round(sum(allocation.rates), 10)
1.0
"""

from ._version import __version__
from .cluster import (
    ClusterServerModel,
    DispatchPolicy,
    FleetEvent,
    FleetSchedule,
    RatePartitioner,
    build_dispatch_policy,
    build_partitioner,
    make_cluster,
    parse_fleet_events,
    resolve_capacities,
)
from .core import (
    PsdController,
    PsdSpec,
    RateAllocation,
    allocate_rates,
    expected_slowdowns,
)
from .distributions import BoundedPareto, Deterministic, Distribution, Exponential
from .errors import (
    AllocationError,
    ClusterDrainedError,
    DistributionError,
    ExperimentError,
    ParameterError,
    ReproError,
    SchedulingError,
    SimulationError,
    StabilityError,
)
from .queueing import (
    MD1Queue,
    MG1Queue,
    MGB1Queue,
    MM1Queue,
    lemma1_expected_slowdown,
    theorem1_task_server_slowdown,
)
from .simulation import (
    MeasurementConfig,
    RateScalableServers,
    ReplicationRunner,
    RequestLedger,
    Scenario,
    ServerModel,
    SharedProcessorServer,
    SimulationResult,
    WorkerPool,
    load_trace,
    run_replications,
    save_trace,
)
from .types import TrafficClass

__all__ = [
    "__version__",
    # distributions
    "Distribution",
    "BoundedPareto",
    "Deterministic",
    "Exponential",
    # queueing
    "MG1Queue",
    "MGB1Queue",
    "MD1Queue",
    "MM1Queue",
    "lemma1_expected_slowdown",
    "theorem1_task_server_slowdown",
    # core
    "PsdSpec",
    "RateAllocation",
    "allocate_rates",
    "expected_slowdowns",
    "PsdController",
    # simulation
    "MeasurementConfig",
    "RequestLedger",
    "Scenario",
    "ServerModel",
    "RateScalableServers",
    "SharedProcessorServer",
    "SimulationResult",
    "ReplicationRunner",
    "WorkerPool",
    "run_replications",
    "load_trace",
    "save_trace",
    # cluster
    "ClusterServerModel",
    "make_cluster",
    "resolve_capacities",
    "DispatchPolicy",
    "RatePartitioner",
    "build_dispatch_policy",
    "build_partitioner",
    "FleetEvent",
    "FleetSchedule",
    "parse_fleet_events",
    # shared types and errors
    "TrafficClass",
    "ReproError",
    "ParameterError",
    "DistributionError",
    "StabilityError",
    "AllocationError",
    "SchedulingError",
    "SimulationError",
    "ClusterDrainedError",
    "ExperimentError",
]
