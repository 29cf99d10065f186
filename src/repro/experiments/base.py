"""Common machinery shared by the experiment drivers.

* :class:`ExperimentResult` — the uniform container every driver returns:
  an identifier, descriptive parameters, named columns and rows, plus
  free-text notes about the qualitative expectations from the paper.
* :func:`replicate` — the one way a driver runs a sweep point: a picklable
  replication build handed to :class:`~repro.simulation.ReplicationRunner`
  with the config's replication count, worker count and base seed, so
  every table is reproducible from ``config.base_seed`` and identical for
  every worker count.
* :func:`simulate_psd_point` — one operating point (a class vector + a
  differentiation spec) under the paper's open-loop PSD allocation on its
  idealised task servers, replicated through :func:`replicate`.
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
from ..types import TrafficClass
from .config import ExperimentConfig
from .tables import render_table

__all__ = [
    "ExperimentResult",
    "ScenarioBuild",
    "replicate",
    "simulate_psd_point",
    "pooled_window_ratios",
]

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
    cost across every sweep point of an experiment.
    """

    classes: tuple[TrafficClass, ...]
    measurement: MeasurementConfig
    spec: PsdSpec

    def __call__(self, _: int, seed: np.random.SeedSequence) -> SimulationResult:
        return Scenario(self.classes, self.measurement, spec=self.spec, seed=seed).run()


def replicate(
    build: Callable[[int, np.random.SeedSequence], SimulationResult],
    config: ExperimentConfig,
    *,
    seed_offset: int = 0,
) -> ReplicationSummary:
    """Run ``config.measurement.replications`` replications of ``build``.

    The base seed is a fresh ``SeedSequence(config.base_seed + seed_offset)``
    per call (``SeedSequence.spawn`` is stateful): builds replicated at the
    same offset replay identical scenario seeds (common random numbers),
    and distinct offsets decorrelate sweep points.  Results are
    bit-identical for every ``config.workers``.
    """
    runner = ReplicationRunner(
        replications=config.measurement.replications,
        base_seed=np.random.SeedSequence(entropy=config.base_seed + seed_offset),
        workers=config.workers,
    )
    return runner.run(build)


def simulate_psd_point(
    classes: Sequence[TrafficClass],
    spec: PsdSpec,
    config: ExperimentConfig,
    *,
    seed_offset: int = 0,
) -> ReplicationSummary:
    """Run one scenario at one operating point, with replications.

    ``seed_offset`` decorrelates different sweep points while keeping the
    whole experiment reproducible from ``config.base_seed``.
    """
    build = ScenarioBuild(tuple(classes), config.scaled_measurement(), spec)
    return replicate(build, config, seed_offset=seed_offset)


def pooled_window_ratios(
    summary: ReplicationSummary, numerator: int, denominator: int = 0
) -> np.ndarray:
    """Per-window slowdown ratios pooled across all replications of a summary."""
    series = [r.monitor.ratio_series(numerator, denominator) for r in summary.results]
    series = [s for s in series if s.size]
    if not series:
        return np.empty(0)
    return np.concatenate(series)
