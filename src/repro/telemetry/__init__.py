"""Observability for the simulation stack: metrics, tracing, health, logging.

The package is injectable end to end: a :class:`Telemetry` facade passed to
a :class:`~repro.simulation.Scenario` collects simulated-time metrics
(:class:`MetricsRegistry`) and the marks the exporters consume; request
traces (:func:`chrome_trace_events`) and per-window cluster health
(:func:`build_health_snapshots`) are derived from run results afterwards.
Without a facade — the default — the instrumented call sites reduce to one
``is not None`` check and every aggregate stays bit-identical.

Nothing here imports :mod:`repro.simulation` or :mod:`repro.cluster` at
module level (the simulation layer imports *us*); the health and tracing
builders import the helpers they need lazily.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".core": ("Telemetry",),
        ".health": ("ClusterHealthSnapshot", "build_health_snapshots"),
        ".log": ("ROOT_LOGGER", "configure_logging", "get_logger", "log_event"),
        ".metrics": ("MetricsRegistry", "Counter", "Gauge", "Histogram"),
        ".summary": ("TelemetrySummary",),
        ".tracing": ("chrome_trace_events", "sample_mask", "trace_seed", "write_chrome_trace"),
    },
)
