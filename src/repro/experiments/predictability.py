"""Differentiation predictability (Figures 5, 6, 7 and 8).

Long timescales (Figs. 5-6): for every system load, the 5th/50th/95th
percentiles of the per-window (1000 time units) slowdown ratio between a
lower and a higher class, for several delta ratios.  The paper's findings,
which these drivers reproduce as rows:

* the median ratio tracks the pre-specified delta ratio at every load;
* the band is wide at low loads (at a target of 2 the 5th percentile can drop
  below 1 — a short-term inversion) and tightens as the load grows;
* the band is asymmetric around the median because of the heavy tail.

Short timescales (Figs. 7-8): the slowdowns of individual requests during a
1000-time-unit span at 50% and 90% load.  The paper observes only *weak*
short-timescale predictability — individual requests of the higher class can
experience larger slowdowns than the lower class; the drivers report, per
class, the request count, mean/max slowdown and the fraction of time-adjacent
request pairs whose ordering contradicts the deltas.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.psd import PsdSpec
from ..metrics.percentile import percentile_band
from ..simulation.monitor import MeasurementConfig
from .base import (
    ExperimentResult,
    ServerFactory,
    pooled_window_ratios,
    simulate_psd_point,
)
from .config import ExperimentConfig, get_preset

__all__ = [
    "run_ratio_percentiles",
    "figure5",
    "figure6",
    "run_individual_requests",
    "figure7",
    "figure8",
]


# --------------------------------------------------------------------------- #
# Long-timescale predictability: Figs. 5 and 6
# --------------------------------------------------------------------------- #
def run_ratio_percentiles(
    delta_vectors: Sequence[Sequence[float]],
    config: ExperimentConfig,
    *,
    experiment_id: str,
    title: str,
    server_factory: ServerFactory | None = None,
) -> ExperimentResult:
    """Percentiles of windowed slowdown ratios for one or more delta vectors.

    For every delta vector and every load, each non-reference class
    contributes one row with the 5th/50th/95th percentile of its per-window
    ratio to class 1.
    """
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "delta_vectors": [tuple(d) for d in delta_vectors],
            "preset": config.name,
            "window": config.measurement.window,
        },
        columns=(
            "deltas",
            "load",
            "ratio_pair",
            "target_ratio",
            "p5",
            "median",
            "p95",
            "windows",
        ),
    )
    for vec_index, deltas in enumerate(delta_vectors):
        spec = PsdSpec(tuple(float(d) for d in deltas))
        for load_index, load in enumerate(config.load_grid):
            classes = config.classes_for_load(load, spec.deltas)
            summary = simulate_psd_point(
                classes,
                spec,
                config,
                seed_offset=1000 * vec_index + load_index,
                server_factory=server_factory,
            )
            for class_index in range(1, spec.num_classes):
                ratios = pooled_window_ratios(summary, class_index, 0)
                band = percentile_band(ratios)
                result.add_row(
                    deltas=tuple(spec.deltas),
                    load=load,
                    ratio_pair=f"class{class_index + 1}/class1",
                    target_ratio=spec.deltas[class_index] / spec.deltas[0],
                    p5=band.p5,
                    median=band.median,
                    p95=band.p95,
                    windows=band.count,
                )
    result.notes.append(
        "Expected shape (paper): the median ratio is close to the target at every "
        "load; the 5th-95th band is widest at light load (the 5th percentile can "
        "fall below 1 for small targets) and narrows as load increases."
    )
    return result


def figure5(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 5: two classes, delta ratios 2, 4 and 8."""
    config = config or get_preset("default")
    return run_ratio_percentiles(
        [(1.0, 2.0), (1.0, 4.0), (1.0, 8.0)],
        config,
        experiment_id="fig5",
        title="Percentiles of windowed slowdown ratios, two classes",
    )


def figure6(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 6: three classes, targets 2 (class 2/1) and 3 (class 3/1)."""
    config = config or get_preset("default")
    return run_ratio_percentiles(
        [(1.0, 2.0, 3.0)],
        config,
        experiment_id="fig6",
        title="Percentiles of windowed slowdown ratios, three classes",
    )


# --------------------------------------------------------------------------- #
# Short-timescale predictability: Figs. 7 and 8
# --------------------------------------------------------------------------- #
def run_individual_requests(
    load: float,
    config: ExperimentConfig,
    *,
    experiment_id: str,
    title: str,
    deltas: Sequence[float] = (1.0, 2.0),
    span: float = 1000.0,
    server_factory: ServerFactory | None = None,
) -> ExperimentResult:
    """Per-request slowdowns over the last ``span`` time units of one run.

    The paper shows the raw scatter; the driver summarises it per class and
    additionally reports the fraction of (higher-class, lower-class) request
    pairs completing within the span whose slowdown ordering contradicts the
    differentiation parameters — the quantitative form of "sometimes the
    behaviour of individual requests is consistent with their slowdown
    parameters, and sometimes not".
    """
    spec = PsdSpec(tuple(float(d) for d in deltas))
    classes = config.classes_for_load(load, spec.deltas)
    service_mean = config.service_distribution().mean()
    measurement: MeasurementConfig = config.scaled_measurement()
    window_start = measurement.horizon - span * service_mean
    summary = simulate_psd_point(
        classes,
        spec,
        config,
        seed_offset=int(load * 100),
        measurement=measurement,
        server_factory=server_factory,
    )
    ledger = summary.results[0].ledger
    ids = ledger.completed_ids
    done = ledger.completion_time[ids]
    ids = ids[(window_start <= done) & (done < measurement.horizon)]
    span_classes = ledger.class_index[ids]
    span_slowdowns = ledger.slowdowns(ids)

    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "load": load,
            "deltas": tuple(spec.deltas),
            "span_time_units": span,
            "preset": config.name,
        },
        columns=("class", "requests", "mean_slowdown", "max_slowdown", "p95_slowdown"),
    )
    per_class_slowdowns: list[np.ndarray] = []
    for c in range(spec.num_classes):
        values = span_slowdowns[span_classes == c]
        per_class_slowdowns.append(values)
        result.add_row(
            **{
                "class": c + 1,
                "requests": int(values.size),
                "mean_slowdown": float(values.mean()) if values.size else float("nan"),
                "max_slowdown": float(values.max()) if values.size else float("nan"),
                "p95_slowdown": float(np.percentile(values, 95)) if values.size else float("nan"),
            }
        )

    if per_class_slowdowns[0].size and per_class_slowdowns[-1].size:
        higher = per_class_slowdowns[0]
        lower = per_class_slowdowns[-1]
        inversions = float(np.mean(higher[:, None] > lower[None, :]))
        window_ratio = (float(lower.mean() / higher.mean()) if higher.mean() > 0 else float("nan"))
        result.notes.append(
            f"fraction of (class1, class{spec.num_classes}) request pairs in the span "
            f"where class 1's slowdown exceeds class {spec.num_classes}'s: {inversions:.3f}"
        )
        result.notes.append(
            f"slowdown ratio class{spec.num_classes}/class1 over this span alone: "
            f"{window_ratio:.3f} (target {spec.deltas[-1] / spec.deltas[0]:.1f})"
        )
    result.notes.append(
        "Expected shape (paper): per-request slowdowns are noisy; the target ordering "
        "often fails over short spans (weak short-timescale predictability), and the "
        "short-span ratio can even invert (the paper measured 0.33 against a target of 2 "
        "in one 1000-unit span at 90% load)."
    )
    return result


def figure7(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 7: individual request slowdowns at 50% load."""
    config = config or get_preset("default")
    return run_individual_requests(
        0.5,
        config,
        experiment_id="fig7",
        title="Slowdown of individual requests, system load 50%",
    )


def figure8(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 8: individual request slowdowns at 90% load."""
    config = config or get_preset("default")
    return run_individual_requests(
        0.9,
        config,
        experiment_id="fig8",
        title="Slowdown of individual requests, system load 90%",
    )
