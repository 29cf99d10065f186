"""Sensitivity to the Bounded Pareto parameters (Figures 11 and 12).

Figure 11 varies the shape parameter alpha over [1.0, 2.0] (two classes,
deltas (1, 2), fixed load) and Figure 12 varies the upper bound p over
{100, 1000, 10000}.  The paper's findings, reproduced as rows:

* neither parameter affects the *differentiation* — the simulated-vs-expected
  deviation does not depend systematically on alpha or p;
* the absolute slowdown decreases as alpha increases (the traffic becomes
  less bursty, E[X^2] falls);
* the absolute slowdown increases with the upper bound (heavier tail,
  E[X^2] grows while E[1/X] barely moves).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.psd import PsdSpec, expected_slowdowns
from .base import ExperimentResult, simulate_psd_point
from .config import ExperimentConfig, get_preset

__all__ = [
    "run_shape_sensitivity",
    "run_upper_bound_sensitivity",
    "figure11",
    "figure12",
    "DEFAULT_SENSITIVITY_LOAD",
]

#: The paper does not state the load used for Figs. 11-12; a moderately high
#: load keeps the slowdowns in the range the figures show (tens to hundreds).
DEFAULT_SENSITIVITY_LOAD = 0.8


def run_shape_sensitivity(
    alphas: Sequence[float],
    config: ExperimentConfig,
    *,
    load: float = DEFAULT_SENSITIVITY_LOAD,
    deltas: Sequence[float] = (1.0, 2.0),
    experiment_id: str = "fig11",
    title: str = "Influence of the Bounded Pareto shape parameter",
) -> ExperimentResult:
    """Simulated vs expected slowdowns as the shape parameter varies."""
    spec = PsdSpec(tuple(float(d) for d in deltas))
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "load": load,
            "deltas": tuple(spec.deltas),
            "upper_bound": config.upper_bound,
            "preset": config.name,
        },
        columns=(
            "alpha",
            "simulated_1",
            "expected_1",
            "simulated_2",
            "expected_2",
            "worst_rel_error",
            "second_moment",
        ),
    )
    for index, alpha in enumerate(alphas):
        varied = config.with_bounds(shape=float(alpha))
        classes = varied.classes_for_load(load, spec.deltas)
        summary = simulate_psd_point(classes, spec, varied, seed_offset=3000 + index)
        simulated = summary.mean_slowdowns
        expected = expected_slowdowns(classes, spec)
        worst = max(abs(s - e) / e for s, e in zip(simulated, expected) if e > 0)
        result.add_row(
            alpha=float(alpha),
            simulated_1=simulated[0],
            expected_1=expected[0],
            simulated_2=simulated[1],
            expected_2=expected[1],
            worst_rel_error=worst,
            second_moment=varied.service_distribution().second_moment(),
        )
    result.notes.append(
        "Expected shape (paper): slowdowns decrease as alpha increases; the relative "
        "deviation between simulated and expected values shows no trend in alpha."
    )
    return result


def run_upper_bound_sensitivity(
    upper_bounds: Sequence[float],
    config: ExperimentConfig,
    *,
    load: float = DEFAULT_SENSITIVITY_LOAD,
    deltas: Sequence[float] = (1.0, 2.0),
    experiment_id: str = "fig12",
    title: str = "Influence of the Bounded Pareto upper bound",
) -> ExperimentResult:
    """Simulated vs expected slowdowns as the upper bound varies."""
    spec = PsdSpec(tuple(float(d) for d in deltas))
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "load": load,
            "deltas": tuple(spec.deltas),
            "shape": config.shape,
            "preset": config.name,
        },
        columns=(
            "upper_bound",
            "simulated_1",
            "expected_1",
            "simulated_2",
            "expected_2",
            "worst_rel_error",
            "second_moment",
        ),
    )
    for index, upper in enumerate(upper_bounds):
        varied = config.with_bounds(upper_bound=float(upper))
        classes = varied.classes_for_load(load, spec.deltas)
        summary = simulate_psd_point(classes, spec, varied, seed_offset=4000 + index)
        simulated = summary.mean_slowdowns
        expected = expected_slowdowns(classes, spec)
        worst = max(abs(s - e) / e for s, e in zip(simulated, expected) if e > 0)
        result.add_row(
            upper_bound=float(upper),
            simulated_1=simulated[0],
            expected_1=expected[0],
            simulated_2=simulated[1],
            expected_2=expected[1],
            worst_rel_error=worst,
            second_moment=varied.service_distribution().second_moment(),
        )
    result.notes.append(
        "Expected shape (paper): slowdowns increase with the upper bound; the relative "
        "deviation between simulated and expected values shows no trend in the bound. "
        "Note that convergence to the analytic mean slows down as the tail gets heavier, "
        "so short runs under-sample the largest jobs."
    )
    return result


def figure11(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 11: shape parameter sweep 1.0 ... 2.0."""
    config = config or get_preset("default")
    alphas = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
    if config.name == "quick":
        alphas = (1.1, 1.5, 1.9)
    return run_shape_sensitivity(alphas, config)


def figure12(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Figure 12: upper bound sweep 100, 1000, 10000."""
    config = config or get_preset("default")
    bounds = (100.0, 1000.0, 10000.0)
    if config.name == "quick":
        bounds = (100.0, 1000.0)
    return run_upper_bound_sensitivity(bounds, config)
