"""Observability for the simulation stack: metrics, tracing, logging.

The package is injectable end to end: a :class:`Telemetry` facade passed to
a :class:`~repro.simulation.Scenario` collects simulated-time metrics
(:class:`MetricsRegistry`) and the marks the exporters consume; request
traces (:func:`chrome_trace_events`) are derived from run results
afterwards.  Per-window rates, node shares and node backlogs are not
telemetry: every run records them in its
:class:`~repro.simulation.scenario.WindowTable`.  Without a facade — the
default — the instrumented call sites reduce to one ``is not None`` check
and every aggregate stays bit-identical.

Nothing here imports :mod:`repro.simulation` or :mod:`repro.cluster` at
module level (the simulation layer imports *us*); the tracing builders
import the helpers they need lazily.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".core": ("Telemetry",),
        ".log": ("ROOT_LOGGER", "configure_logging", "get_logger", "log_event"),
        ".metrics": ("MetricsRegistry", "Counter", "Gauge", "Histogram"),
        ".summary": ("TelemetrySummary",),
        ".tracing": ("chrome_trace_events", "sample_mask", "trace_seed", "write_chrome_trace"),
    },
)
