"""Differentiation controllability (Figures 9 and 10).

The controllability question: when the operator changes the differentiation
parameters, do the *achieved* slowdown ratios follow?  Figure 9 sweeps the
system load for two classes with target ratios 2, 4 and 8; Figure 10 does the
same for three classes with targets 2 and 3.  The paper's findings, which the
rows reproduce:

* small targets (2 and 4) are achieved accurately across the load range;
* the error grows with the target (8), because the allocation becomes more
  sensitive to load-estimation error (Eq. 17 gives the high class a thin
  residual share);
* three-class ratios show more variance than two-class ones — an estimation
  error in any class perturbs every other class's rate.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.psd import PsdSpec
from ..metrics.ratios import compare_to_targets
from .base import ExperimentResult, simulate_psd_point
from .config import ExperimentConfig, get_preset

__all__ = ["run_controllability", "figure9", "figure10"]


def run_controllability(
    delta_vectors: Sequence[Sequence[float]],
    config: ExperimentConfig,
    *,
    experiment_id: str,
    title: str,
) -> ExperimentResult:
    """Achieved mean slowdown ratios for several delta vectors across the load grid."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "delta_vectors": [tuple(d) for d in delta_vectors],
            "preset": config.name,
            "replications": config.measurement.replications,
        },
        columns=(
            "deltas",
            "load",
            "ratio_pair",
            "target_ratio",
            "achieved_ratio",
            "rel_error",
            "predictable",
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
                seed_offset=7000 + 1000 * vec_index + load_index,
            )
            comparison = compare_to_targets(summary.mean_slowdowns, spec)
            for class_index in range(1, spec.num_classes):
                result.add_row(
                    deltas=tuple(spec.deltas),
                    load=load,
                    ratio_pair=f"class{class_index + 1}/class1",
                    target_ratio=comparison.targets[class_index],
                    achieved_ratio=comparison.achieved[class_index],
                    rel_error=abs(
                        comparison.achieved[class_index] / comparison.targets[class_index] - 1.0
                    ),
                    predictable=comparison.predictable,
                )
    result.notes.append(
        "Expected shape (paper): achieved ratios track targets 2 and 4 closely at all "
        "loads; the deviation grows for target 8; three-class ratios are noisier than "
        "two-class ones.  All of this is attributed to load-estimation error."
    )
    return result


def figure9(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 9: two classes, target ratios 2, 4 and 8."""
    config = config or get_preset("default")
    return run_controllability(
        [(1.0, 2.0), (1.0, 4.0), (1.0, 8.0)],
        config,
        experiment_id="fig9",
        title="Achieved slowdown ratios of two classes",
    )


def figure10(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 10: three classes, target ratios 2 and 3."""
    config = config or get_preset("default")
    return run_controllability(
        [(1.0, 2.0, 3.0)],
        config,
        experiment_id="fig10",
        title="Achieved slowdown ratios of three classes",
    )
