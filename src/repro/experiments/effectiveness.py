"""Effectiveness of the rate-allocation strategy (Figures 2, 3 and 4).

For each system load the drivers simulate the PSD server and compare the
achieved per-class mean slowdowns with the closed-form expectations of
Eq. 18.  Figure 2 uses two classes with deltas (1, 2), Figure 3 deltas
(1, 4), Figure 4 three classes with deltas (1, 2, 3).  The paper reports
"very small differences between the simulated and expected slowdowns under
various load conditions"; the generated rows carry both values plus the
relative error so the claim can be checked quantitatively.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.psd import PsdSpec, expected_slowdowns
from .base import ExperimentResult, simulate_psd_point
from .config import ExperimentConfig, get_preset

__all__ = ["run_effectiveness", "figure2", "figure3", "figure4"]


def run_effectiveness(
    deltas: Sequence[float],
    config: ExperimentConfig,
    *,
    experiment_id: str,
    title: str,
) -> ExperimentResult:
    """Load sweep comparing simulated against Eq. 18 slowdowns."""
    spec = PsdSpec(tuple(float(d) for d in deltas))
    n = spec.num_classes
    columns = ["load"]
    for i in range(1, n + 1):
        columns.extend([f"simulated_{i}", f"expected_{i}"])
    columns.extend(["system_slowdown", "worst_rel_error"])

    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "deltas": tuple(spec.deltas),
            "shape": config.shape,
            "bounds": (config.lower_bound, config.upper_bound),
            "replications": config.measurement.replications,
            "preset": config.name,
        },
        columns=tuple(columns),
    )

    for index, load in enumerate(config.load_grid):
        classes = config.classes_for_load(load, spec.deltas)
        summary = simulate_psd_point(classes, spec, config, seed_offset=index)
        simulated = summary.mean_slowdowns
        expected = expected_slowdowns(classes, spec)
        row: dict[str, object] = {"load": load}
        worst = 0.0
        for i, (sim, exp) in enumerate(zip(simulated, expected), start=1):
            row[f"simulated_{i}"] = sim
            row[f"expected_{i}"] = exp
            if exp > 0:
                worst = max(worst, abs(sim - exp) / exp)
        row["system_slowdown"] = summary.system_slowdown.mean
        row["worst_rel_error"] = worst
        result.add_row(**row)

    result.notes.append(
        "Expected shape (paper): simulated and analytic slowdowns agree closely at "
        "every load; slowdown grows super-linearly with load; class slowdowns stay "
        "in the ratio of their deltas."
    )
    return result


def figure2(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 2: two classes, deltas (1, 2)."""
    config = config or get_preset("default")
    return run_effectiveness(
        (1.0, 2.0),
        config,
        experiment_id="fig2",
        title="Simulated vs expected slowdowns, two classes, deltas (1, 2)",
    )


def figure3(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 3: two classes, deltas (1, 4)."""
    config = config or get_preset("default")
    return run_effectiveness(
        (1.0, 4.0),
        config,
        experiment_id="fig3",
        title="Simulated vs expected slowdowns, two classes, deltas (1, 4)",
    )


def figure4(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 4: three classes, deltas (1, 2, 3)."""
    config = config or get_preset("default")
    return run_effectiveness(
        (1.0, 2.0, 3.0),
        config,
        experiment_id="fig4",
        title="Simulated vs expected slowdowns, three classes, deltas (1, 2, 3)",
    )
