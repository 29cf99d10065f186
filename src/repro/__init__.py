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

Imports are lazy: ``import repro`` loads only the version, and each public
name (here and in every subpackage) imports its own submodule on first use
(PEP 562 module ``__getattr__``).  A run therefore compiles only the modules
it reaches: a cluster experiment loads about half of the package.
"""

from ._version import __version__ as __version__


def _lazy_exports(package: str, namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 hooks for a package whose public names load on first use.

    ``table`` maps each submodule (relative to ``package``) to the public
    names it defines; every name is written there once.  Returns
    ``(__getattr__, __dir__, __all__)``.  The first access to a name imports
    its submodule and caches the object in ``namespace`` (the package's
    globals), so later reads never reach ``__getattr__``.  Any other name is
    tried as a submodule, so ``repro.simulation.runner`` stays reachable
    without an explicit import; what is neither raises ``AttributeError``.
    """
    import sys

    source = {name: package + module for module, names in table.items() for name in names}

    def load(module: str):
        # ``__import__``, not ``importlib.import_module``: only imports made
        # through it show in ``python -X importtime``.
        __import__(module)
        return sys.modules[module]

    def __getattr__(name: str):
        if name in source:
            value = getattr(load(source[name]), name)
        else:
            value = submodule(name)
        namespace[name] = value
        return value

    def submodule(name: str):
        if not name.startswith("__"):
            try:
                return load(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__, list(source)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".distributions": ("Distribution", "BoundedPareto", "Deterministic", "Exponential"),
        ".queueing": (
            "MG1Queue",
            "MGB1Queue",
            "MD1Queue",
            "MM1Queue",
            "lemma1_expected_slowdown",
            "theorem1_task_server_slowdown",
        ),
        ".core": (
            "PsdSpec",
            "RateAllocation",
            "allocate_rates",
            "expected_slowdowns",
            "PsdController",
        ),
        ".simulation": (
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
        ),
        ".cluster": (
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
        ),
        ".types": ("TrafficClass",),
        ".errors": (
            "ReproError",
            "ParameterError",
            "DistributionError",
            "StabilityError",
            "AllocationError",
            "SchedulingError",
            "SimulationError",
            "ClusterDrainedError",
            "ExperimentError",
        ),
    },
)
__all__.insert(0, "__version__")
