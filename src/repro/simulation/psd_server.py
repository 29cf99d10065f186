"""The full PSD server simulation (Figure 1 of the paper).

This module is a thin compatibility wrapper: the common assembly (sources,
monitor, trace, estimation windows, controller hookup) lives in
:class:`repro.simulation.scenario.Scenario`, and the idealised per-class
rate-scalable task servers live in
:class:`repro.simulation.server_models.RateScalableServers`.
:class:`PsdServerSimulation` simply pre-selects that server model, so legacy
call sites keep working unchanged.

``RateController``, ``StaticRateController`` and ``SimulationResult`` are
re-exported from :mod:`repro.simulation.scenario` for backwards
compatibility.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.psd import PsdSpec
from ..types import TrafficClass
from .generator import RequestSource
from .monitor import MeasurementConfig
from .scenario import (
    RateController,
    Scenario,
    SimulationResult,
    StaticRateController,
)
from .server_models import RateScalableServers
from .task_server import FcfsTaskServer

__all__ = ["SimulationResult", "PsdServerSimulation", "RateController", "StaticRateController"]


class PsdServerSimulation(Scenario):
    """Discrete-event simulation of the PSD server of Fig. 1.

    Equivalent to ``Scenario(classes, config, server=RateScalableServers(),
    ...)``; kept as a named entry point for the paper's model.
    """

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        config: MeasurementConfig,
        *,
        spec: PsdSpec | None = None,
        controller: RateController | None = None,
        seed: int | np.random.SeedSequence | None = 0,
        sources: Sequence[RequestSource] | None = None,
        admission: "AdmissionPolicy | None" = None,
    ) -> None:
        super().__init__(
            classes,
            config,
            server=RateScalableServers(),
            spec=spec,
            controller=controller,
            seed=seed,
            sources=sources,
            admission=admission,
        )

    @property
    def task_servers(self) -> list[FcfsTaskServer]:
        """The per-class rate-scalable task servers of the Fig. 1 model."""
        return self.server.servers
