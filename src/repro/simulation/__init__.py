"""Discrete-event simulation of PSD provisioning on an Internet server.

The package is layered as *engine -> scenario -> server model -> runner*:

* :mod:`repro.simulation.engine` / :mod:`repro.simulation.events` — the DES
  core (clock, calendar, run loop).
* :mod:`repro.simulation.ledger` — :class:`RequestLedger`, the columnar
  (struct-of-arrays) request store and the only record of a run: every
  request is one row across preallocated NumPy columns, addressed by integer
  row id; the whole lifecycle (servers, cluster dispatch, monitor) moves
  ids, never objects, and a clustered run's ledger also holds each row's
  serving node.
* :mod:`repro.simulation.generator` — per-class request sources (Poisson,
  deterministic, trace replay).
* :mod:`repro.simulation.scenario` — :class:`Scenario`, the composable
  assembly every simulation shares: sources, admission, windowed monitor,
  estimation-window ticks and the controller hookup; each run's
  per-boundary control record is one :class:`WindowTable`.
* :mod:`repro.simulation.server_models` — pluggable :class:`ServerModel`
  substrates: :class:`RateScalableServers` (the paper's idealised Fig. 1
  model) and :class:`SharedProcessorServer` (one full-speed processor driven
  by any :mod:`repro.scheduling` discipline).
* :mod:`repro.simulation.monitor` — measurement: a read-only view over the
  ledger.
* :mod:`repro.simulation.trace_io` — :func:`load_trace` / :func:`save_trace`:
  CSV/NPZ arrival logs parsed columnar into per-class :class:`TraceSource`s,
  and completed runs written back out as replayable logs.
* :mod:`repro.simulation.runner` — :class:`ReplicationRunner`:
  multi-replication orchestration, serial or parallel (forked workers) with
  bit-identical aggregates for any worker count.

Adding a new server model
-------------------------
Subclass :class:`ServerModel` and implement ``_on_bind`` (build per-run
state against the engine), ``submit_batch`` (queue a time-ordered block of
admitted ledger row ids), ``drain`` (serve up to a time, writing lifecycle
timestamps into the ledger, and return the completed ids), ``apply_rates``
(react to a re-allocation) and ``backlogs``.  Then run it with
``Scenario(classes, config, server=YourModel(...)).run()`` — every
experiment driver, example and bench composes through that same path.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".engine": ("SimulationEngine",),
        ".events": ("Event", "EventQueue"),
        ".generator": (
            "ArrivalProcess",
            "PoissonArrivals",
            "DeterministicArrivals",
            "RequestSource",
            "TraceSource",
            "sources_from_classes",
        ),
        ".ledger": ("RequestLedger",),
        ".monitor": ("MeasurementConfig", "SlowdownTable", "WindowedMonitor", "fleet_availability"),
        ".runner": (
            "ReplicationRunner",
            "ReplicationSummary",
            "ReplicatedStatistic",
            "WorkerPool",
            "shared_pool",
            "run_replications",
            "summarise_replications",
        ),
        ".scenario": (
            "Scenario",
            "SimulationResult",
            "RateController",
            "StaticRateController",
            "WindowTable",
        ),
        ".server_models": ("ServerModel", "RateScalableServers", "SharedProcessorServer"),
        ".trace_io": ("load_trace", "save_trace", "trace_sources_from_arrays"),
    },
)
