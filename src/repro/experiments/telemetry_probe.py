"""An instrumented cluster-churn probe behind the CLI's ``--telemetry`` flag.

The experiment drivers answer *what* the controller achieves; this probe
answers *how a run behaves while achieving it*.  It replays one replication
of the cluster experiment's churn cell — a capacity-aware fleet losing and
regaining a node mid-run — with a live :class:`repro.telemetry.Telemetry`
facade attached, then packages every exporter the telemetry layer offers:

* a :class:`repro.telemetry.TelemetrySummary` for the terminal,
* Chrome trace-event JSON (``trace.json``, open in Perfetto / about:tracing),
* the metric stream (``metrics.jsonl``) and per-window cluster health
  rows (``health.jsonl``, see :func:`health_rows`) when an output
  directory is given.

The probe seeds everything from ``config.base_seed``, so its artefacts are
as reproducible as the experiment tables themselves.

A health row's ``assigned_rates`` average the run's window table, which
holds the partition of each window boundary.  A fleet event strictly
inside a window re-partitions the rates without a table row, so until the
next boundary ``assigned_rates`` show the boundary's partition;
``availability`` reads the fleet timeline and still sees the event.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cluster import make_cluster, parse_fleet_events, resolve_capacities
from ..core.feedback import FeedbackPsdController
from ..core.psd import PsdSpec
from ..simulation.monitor import window_span, windowed_time_average
from ..simulation.scenario import Scenario, SimulationResult
from ..telemetry import Telemetry, TelemetrySummary, chrome_trace_events, write_chrome_trace
from .config import ExperimentConfig, get_preset

__all__ = ["TelemetryProbeResult", "health_rows", "run_telemetry_probe"]

#: Fleet geometry of the probe: enough nodes for churn to matter, small
#: enough that the trace stays readable in a viewer.
PROBE_NODES = 3


@dataclass
class TelemetryProbeResult:
    """Everything the ``--telemetry`` probe produced."""

    summary: TelemetrySummary
    result: SimulationResult
    trace_events: list[dict]
    #: The :func:`health_rows` of the run, one per measurement window.
    snapshots: list[dict]
    #: Files written under ``--telemetry-out`` (empty without an out dir).
    paths: dict[str, Path] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [self.summary.to_text()]
        availability = self.result.per_node_availability()
        if availability is not None and availability.size:
            live = availability.sum(axis=1) / availability.shape[1]
            worst = int(np.argmin(live))
            lines.append(
                f"# cluster health: {len(live)} windows, "
                f"lowest live fraction {live[worst]:.2f} in window {worst}"
            )
        for kind, path in sorted(self.paths.items()):
            lines.append(f"# wrote {kind}: {path}")
        return "\n".join(lines)


def _probe_fleet(config: ExperimentConfig, warmup: float):
    """The config's churn schedule, or a default mid-run kill/restore."""
    schedule = config.fleet_schedule()
    if schedule is None:
        schedule = parse_fleet_events(
            (f"kill:1@{warmup * 2:g}", f"restore:1@{warmup * 4:g}")
        )
    schedule.validate_for(PROBE_NODES)
    return schedule.scaled_to_time_units(config.service_distribution().mean())


def health_rows(result: SimulationResult) -> list[dict]:
    """One ``health.jsonl`` row per measurement window of a clustered run.

    ``availability`` is each node's live fraction of the window,
    ``assigned_rates`` the time average of its total rate share from the
    window table, ``utilisation`` that over its time-averaged capacity and
    ``backlogs`` its pending requests in the table row at the window's end.
    """
    availability = result.per_node_availability()
    table = result.window_table
    warmup, window = float(result.config.warmup), float(result.config.window)
    span = {"warmup": warmup, "window": window, "num_windows": availability.shape[0]}
    assigned = windowed_time_average(
        list(zip(table.time.tolist(), table.node_shares.sum(axis=-1))), **span
    )
    capacities = windowed_time_average(
        [
            (time, [1.0 if cap is None else float(cap) for cap in caps])
            for time, _states, caps in result.fleet_timeline
        ],
        **span,
    )
    utilisation = np.divide(
        assigned, capacities, out=np.zeros_like(assigned), where=capacities > 0.0
    )
    rows = []
    for index in range(availability.shape[0]):
        start, end = window_span(index, warmup=warmup, window=window)
        # Boundaries land on window ends up to float jitter, hence the
        # engine's 1e-9 tolerance.
        at = int(np.searchsorted(table.time, end + 1e-9)) - 1
        rows.append(
            {
                "window": index,
                "start": start,
                "end": end,
                "availability": availability[index].tolist(),
                "assigned_rates": assigned[index].tolist(),
                "utilisation": utilisation[index].tolist(),
                "backlogs": table.node_backlog[at].tolist(),
            }
        )
    return rows


def run_telemetry_probe(
    config: ExperimentConfig | None = None,
    *,
    deltas: Sequence[float] = (1.0, 2.0),
    load: float | None = None,
    out_dir: str | Path | None = None,
) -> TelemetryProbeResult:
    """Run the instrumented churn replication and collect every exporter."""
    config = config or get_preset("quick")
    spec = PsdSpec(tuple(float(d) for d in deltas))
    load = max(config.load_grid) if load is None else float(load)
    classes = config.classes_for_load(load, spec.deltas)
    scaled = config.scaled_measurement()

    telemetry = Telemetry()
    cluster = make_cluster(
        PROBE_NODES,
        "weighted_jsq",
        capacities=resolve_capacities("2:1", PROBE_NODES),
        seed=np.random.SeedSequence(entropy=(config.base_seed, 1)),
        fleet=_probe_fleet(config, config.measurement.warmup),
    )
    result = Scenario(
        classes,
        scaled,
        server=cluster,
        controller=FeedbackPsdController(classes, spec),
        seed=np.random.SeedSequence(entropy=config.base_seed),
        telemetry=telemetry,
    ).run()

    trace = chrome_trace_events(result, seed=config.base_seed, telemetry=telemetry)
    snapshots = health_rows(result)
    probe = TelemetryProbeResult(
        summary=TelemetrySummary.from_run(telemetry, result),
        result=result,
        trace_events=trace,
        snapshots=snapshots,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        probe.paths["trace"] = out / "trace.json"
        write_chrome_trace(probe.paths["trace"], trace)
        probe.paths["metrics"] = out / "metrics.jsonl"
        telemetry.registry.write_jsonl(probe.paths["metrics"])
        probe.paths["health"] = out / "health.jsonl"
        with probe.paths["health"].open("w") as stream:
            for row in snapshots:
                stream.write(json.dumps(row) + "\n")
    return probe
