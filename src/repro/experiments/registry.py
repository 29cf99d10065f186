"""Registry of experiment drivers, keyed by figure identifier.

``run("fig5", preset="quick")`` executes the driver for Figure 5 with the
requested preset and returns its :class:`~repro.experiments.base.ExperimentResult`.
``run_all`` executes every figure (used when regenerating EXPERIMENTS.md).
Each :data:`EXPERIMENTS` entry imports its driver's module when it first
runs, so the CLI compiles only the drivers it runs.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import ExperimentError
from .base import ExperimentResult
from .config import ExperimentConfig, get_preset

__all__ = ["EXPERIMENTS", "run", "run_all", "available_experiments"]


class _Driver:
    """A registry entry that imports its driver's module on the first call,
    so a run compiles only the drivers it runs."""

    __slots__ = ("module", "name", "_driver")

    def __init__(self, module: str, name: str) -> None:
        self.module = module
        self.name = name
        self._driver = None

    def __call__(self, config: ExperimentConfig | None = None) -> ExperimentResult:
        if self._driver is None:
            # ``__import__``, as ``repro._lazy_exports`` does: its imports
            # show in ``python -X importtime``.
            module = __import__(f"{__package__}.{self.module}", fromlist=[self.name])
            self._driver = getattr(module, self.name)
        return self._driver(config)

    def __repr__(self) -> str:
        return f"<experiment driver {self.module}.{self.name}>"


EXPERIMENTS: dict[str, _Driver] = {
    "fig2": _Driver("effectiveness", "figure2"),
    "fig3": _Driver("effectiveness", "figure3"),
    "fig4": _Driver("effectiveness", "figure4"),
    "fig5": _Driver("predictability", "figure5"),
    "fig6": _Driver("predictability", "figure6"),
    "fig7": _Driver("predictability", "figure7"),
    "fig8": _Driver("predictability", "figure8"),
    "fig9": _Driver("controllability", "figure9"),
    "fig10": _Driver("controllability", "figure10"),
    "fig11": _Driver("sensitivity", "figure11"),
    "fig12": _Driver("sensitivity", "figure12"),
    # Extension beyond the paper: the PSD loop over a multi-node cluster.
    "cluster": _Driver("cluster", "cluster_scaling"),
    # Extension beyond the paper: offered load past capacity, with and
    # without quota-reserve admission control in front of the cluster.
    "overload": _Driver("overload", "overload"),
    # Extension beyond the paper: autoscaler policies closing the
    # monitor -> fleet loop under diurnal + flash-crowd load, scored on
    # the SLO-vs-node-hours frontier against a static peak fleet.
    "autoscale": _Driver("autoscale", "autoscale"),
}


def available_experiments() -> tuple[str, ...]:
    """The identifiers of every reproducible figure, in paper order."""
    return tuple(EXPERIMENTS)


def run(
    experiment_id: str,
    *,
    preset: str = "default",
    config: ExperimentConfig | None = None,
) -> ExperimentResult:
    """Run one experiment by figure id with a preset or an explicit config."""
    try:
        driver = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    if config is None:
        config = get_preset(preset)
    return driver(config)


def run_all(
    *,
    preset: str = "default",
    config: ExperimentConfig | None = None,
    only: Iterable[str] | None = None,
) -> list[ExperimentResult]:
    """Run every registered experiment (or the subset named in ``only``)."""
    wanted = tuple(only) if only is not None else available_experiments()
    for experiment_id in wanted:
        if experiment_id not in EXPERIMENTS:
            raise ExperimentError(f"unknown experiment {experiment_id!r}")
    return [run(eid, preset=preset, config=config) for eid in wanted]
