"""A shared-processor server driven by a proportional-share scheduler.

This module is a thin compatibility wrapper: the common assembly lives in
:class:`repro.simulation.scenario.Scenario`, and the single full-speed
processor with a pluggable scheduler lives in
:class:`repro.simulation.server_models.SharedProcessorServer`.
:class:`SharedProcessorSimulation` pre-selects that server model.

Comparing this realisation with the idealised
:class:`~repro.simulation.psd_server.PsdServerSimulation` quantifies how
much of the PSD behaviour survives packetisation — the scheduler-ablation
bench in ``benchmarks/``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.psd import PsdSpec
from ..scheduling.base import Scheduler
from ..types import TrafficClass
from .generator import RequestSource
from .monitor import MeasurementConfig
from .scenario import RateController, Scenario, SimulationResult
from .server_models import SharedProcessorServer

__all__ = ["SharedProcessorSimulation", "SimulationResult"]


class SharedProcessorSimulation(Scenario):
    """Single full-speed processor + pluggable scheduler + PSD controller.

    Equivalent to ``Scenario(classes, config,
    server=SharedProcessorServer(scheduler, capacity=capacity), ...)``.
    """

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        config: MeasurementConfig,
        scheduler: Scheduler,
        *,
        spec: PsdSpec | None = None,
        controller: RateController | None = None,
        seed: int | np.random.SeedSequence | None = 0,
        sources: Sequence[RequestSource] | None = None,
        capacity: float = 1.0,
        admission: "AdmissionPolicy | None" = None,
    ) -> None:
        super().__init__(
            classes,
            config,
            server=SharedProcessorServer(scheduler, capacity=capacity),
            spec=spec,
            controller=controller,
            seed=seed,
            sources=sources,
            admission=admission,
        )

    @property
    def scheduler(self) -> Scheduler:
        """The proportional-share scheduler realising the rate allocation."""
        return self.server.scheduler

    @property
    def capacity(self) -> float:
        """The shared processor's full-speed capacity."""
        return self.server.capacity
