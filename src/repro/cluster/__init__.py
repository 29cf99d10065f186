"""Cluster serving: dispatching PSD traffic across many processors.

The paper evaluates proportional slowdown differentiation on a single
serving substrate; real hosting platforms run the same control loop over a
*cluster* of processors.  This package provides that substrate as just
another :class:`~repro.simulation.ServerModel`:

* :mod:`repro.cluster.model` — :class:`ClusterServerModel`, N member nodes
  (each a :class:`~repro.simulation.RateScalableServers`: the paper's
  per-class rate-scalable task servers) behind one dispatch point.
* :mod:`repro.cluster.dispatch` — pluggable :class:`DispatchPolicy` routing:
  round-robin, seeded weighted-random (capacity-weighted by default),
  join-shortest-queue (raw and capacity-normalised), fastest-available,
  least-work-left and class-affinity partitioning.
* :mod:`repro.cluster.partition` — :class:`RatePartitioner` strategies that
  fan the controller's per-class rate allocation out to the nodes (equal
  split, backlog-proportional, capacity-proportional, affinity-aware),
  keeping the feedback loop closed over the whole cluster.
* :mod:`repro.cluster.capacity` — heterogeneous fleet descriptions: named
  capacity mixes (``"2:1"``, ``"pow2"``) and relative weights resolved to
  per-node capacities.
* :mod:`repro.cluster.fleet` — dynamic fleets: :class:`FleetSchedule`
  timelines of node ``join`` / ``leave`` (drain-before-removal) /
  ``set_capacity`` events, applied mid-run with deterministic
  re-normalisation of dispatch and rate partitioning over the live nodes.
* :mod:`repro.cluster.admission` — cluster-wide overload defence:
  :class:`AdmissionController` budgets each estimation window from the
  fleet's live capacity, holds per-class quota reserves and walks arrivals
  down an accept → degrade → shed ladder behind EWMA utilisation/backlog
  thresholds; the ``ADMISSION_POLICIES`` registry + :func:`build_admission`
  factory keep experiment builds picklable.
* :mod:`repro.cluster.autoscale` — endogenous scaling:
  :class:`AutoscalerPolicy` families (target-tracking, step-scaling,
  predictive EWMA) observe one :class:`~repro.core.WindowObservation` at
  each estimation boundary and emit ``join`` / ``leave`` fleet events at engine time,
  with per-direction cooldowns, join warm-up lag and min/max bounds —
  deterministic and bit-identical across hot paths and worker counts.

``Scenario(classes, config, server=make_cluster(4, "jsq"))`` is all it takes
to rerun any experiment on a 4-node cluster; the monitor, estimator and
controller stacks are unchanged.  Heterogeneous fleets add one argument:
``make_cluster(2, "weighted_jsq", capacities=resolve_capacities("2:1", 2))``;
dynamic fleets another:
``make_cluster(2, "weighted_jsq", fleet=parse_fleet_events("kill:0@200 restore:0@400"))``.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".admission": (
            "AdmissionController",
            "ADMISSION_POLICIES",
            "build_admission",
        ),
        ".autoscale": (
            "AutoscalerPolicy",
            "TargetTracking",
            "StepScaling",
            "PredictiveEwma",
            "AUTOSCALERS",
            "build_autoscaler",
            "node_hours",
        ),
        ".capacity": ("CAPACITY_MIXES", "resolve_capacities", "mix_label"),
        ".dispatch": (
            "DispatchPolicy",
            "RoundRobin",
            "WeightedRandom",
            "JoinShortestQueue",
            "CapacityWeightedJsq",
            "FastestAvailable",
            "LeastWorkLeft",
            "ClassAffinity",
            "DISPATCH_POLICIES",
            "build_dispatch_policy",
        ),
        ".fleet": (
            "FleetEvent",
            "FleetSchedule",
            "parse_fleet_events",
            "NODE_LIVE",
            "NODE_DRAINING",
            "NODE_DOWN",
        ),
        ".model": ("ClusterServerModel", "make_cluster"),
        ".partition": (
            "RatePartitioner",
            "EqualSplit",
            "BacklogProportional",
            "CapacityProportional",
            "AffinityPartitioner",
            "PARTITIONERS",
            "build_partitioner",
        ),
    },
)
