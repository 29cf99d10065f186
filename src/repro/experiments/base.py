"""Common machinery shared by the experiment drivers.

* :class:`ExperimentResult` — the uniform container every driver returns:
  an identifier, descriptive parameters, named columns and rows, plus
  free-text notes about the qualitative expectations from the paper.
* :func:`simulate_psd_point` — run one simulation scenario at one operating
  point (a class vector + differentiation spec) with the configured number
  of replications and return the aggregated summary.  The serving substrate
  is a pluggable :class:`~repro.simulation.ServerModel` (the paper's
  idealised task servers by default), so every figure can be regenerated
  against any realisation — and replications run in parallel when the
  config asks for workers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.psd import PsdSpec
from ..errors import ExperimentError
from ..simulation.monitor import MeasurementConfig
from ..simulation.runner import ReplicationRunner, ReplicationSummary
from ..simulation.scenario import Scenario, SimulationResult
from ..simulation.server_models import RateScalableServers, ServerModel
from ..types import TrafficClass
from .config import ExperimentConfig
from .tables import render_table

__all__ = [
    "ExperimentResult",
    "ServerFactory",
    "ScenarioBuild",
    "simulate_psd_point",
    "pooled_window_ratios",
]

#: Builds a fresh :class:`ServerModel` per replication (models hold per-run
#: state).  ``None`` means the paper's idealised :class:`RateScalableServers`.
ServerFactory = Callable[[], ServerModel]


@dataclass
class ExperimentResult:
    """Tabular output of one experiment driver (one paper figure)."""

    experiment_id: str
    title: str
    parameters: dict[str, object] = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        if self.columns:
            missing = [c for c in self.columns if c not in values]
            if missing:
                raise ExperimentError(f"{self.experiment_id}: row is missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def to_text(self) -> str:
        """Human-readable rendering (title, parameters, table, notes)."""
        lines = [f"{self.experiment_id}: {self.title}"]
        if self.parameters:
            params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
            lines.append(f"  parameters: {params}")
        columns = self.columns or tuple(self.rows[0].keys()) if self.rows else ()
        if self.rows:
            lines.append(render_table(columns, self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown rendering used when assembling EXPERIMENTS.md."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        if self.parameters:
            lines.append(
                "Parameters: " + ", ".join(f"`{k}={v}`" for k, v in self.parameters.items())
            )
            lines.append("")
        columns = self.columns or (tuple(self.rows[0].keys()) if self.rows else ())
        if self.rows:
            header = "| " + " | ".join(columns) + " |"
            sep = "| " + " | ".join("---" for _ in columns) + " |"
            lines.extend([header, sep])
            for row in self.rows:
                lines.append("| " + " | ".join(_format_cell(row.get(c)) for c in columns) + " |")
            lines.append("")
        for note in self.notes:
            lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.4g}"
    return str(value)


@dataclass(frozen=True)
class ScenarioBuild:
    """A picklable replication build: one scenario per (index, seed).

    Being a module-level callable dataclass (rather than a closure) lets the
    parallel :class:`~repro.simulation.runner.ReplicationRunner` ship it to
    the persistent worker pool's running workers, which amortises the fork
    cost across every sweep point of an experiment.  ``server_factory``
    should itself be picklable (``None``, a class, or a module-level
    callable); a closure factory makes the pool re-fork its workers for
    every batch.
    """

    classes: tuple[TrafficClass, ...]
    measurement: MeasurementConfig
    spec: PsdSpec
    server_factory: ServerFactory | None = None

    def __call__(self, _: int, seed: np.random.SeedSequence) -> SimulationResult:
        factory = self.server_factory
        server = factory() if factory is not None else RateScalableServers()
        return Scenario(
            self.classes, self.measurement, server=server, spec=self.spec, seed=seed
        ).run()


def simulate_psd_point(
    classes: Sequence[TrafficClass],
    spec: PsdSpec,
    config: ExperimentConfig,
    *,
    seed_offset: int = 0,
    measurement: MeasurementConfig | None = None,
    server_factory: ServerFactory | None = None,
    workers: int | None = None,
) -> ReplicationSummary:
    """Run one scenario at one operating point, with replications.

    ``seed_offset`` decorrelates different sweep points while keeping the
    whole experiment reproducible from ``config.base_seed``.
    ``server_factory`` selects the serving substrate (fresh instance per
    replication); ``workers`` overrides ``config.workers``.  Results are
    bit-identical for every worker count.
    """
    scaled = measurement if measurement is not None else config.scaled_measurement()
    base_seed = np.random.SeedSequence(entropy=config.base_seed + seed_offset)
    build = ScenarioBuild(tuple(classes), scaled, spec, server_factory)
    runner = ReplicationRunner(
        replications=config.measurement.replications,
        base_seed=base_seed,
        workers=config.workers if workers is None else workers,
    )
    return runner.run(build)


def pooled_window_ratios(
    summary: ReplicationSummary, numerator: int, denominator: int = 0
) -> np.ndarray:
    """Per-window slowdown ratios pooled across all replications of a summary."""
    series = [r.monitor.ratio_series(numerator, denominator) for r in summary.results]
    series = [s for s in series if s.size]
    if not series:
        return np.empty(0)
    return np.concatenate(series)
