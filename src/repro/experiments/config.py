"""Shared experiment configuration (the Sec. 4.1 protocol) and presets.

Every experiment driver accepts an :class:`ExperimentConfig`, which couples

* the measurement protocol (warm-up, horizon, estimation window,
  replications) of :class:`repro.simulation.MeasurementConfig`, and
* the workload parameters of Sec. 4.1 (Bounded Pareto shape/bounds, the
  system-load grid).

Three presets are provided:

``paper``
    The full protocol: BP(0.1, 100, 1.5), 10k warm-up, 60k horizon, 1k
    windows, 100 replications, 10-point load grid.  On a 2-vCPU Xeon VM
    with ``--workers 2``, fig. 2 takes 19–26 s and all 14 experiments
    about 10 minutes (570 s).
``default``
    Same workload, shorter runs and fewer replications; the shapes of all
    figures are preserved.  This is what EXPERIMENTS.md is generated with.
``quick``
    A smoke-test preset used by the test-suite and the pytest benches.

The cluster fields (dispatch policies, capacity mixes, fleet events,
admission and autoscaler) import their :mod:`repro.cluster` modules where
they are validated or built, and the presets are built on first use, so a
single-node figure run compiles no cluster module until it builds a config.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cache
from typing import TYPE_CHECKING

from ..core.admission import AdmissionPolicy
from ..distributions.bounded_pareto import BoundedPareto
from ..errors import ExperimentError, ParameterError, SimulationError
from ..simulation.monitor import MeasurementConfig
from ..types import TrafficClass
from ..validation import require_count
from ..workload.webserver import web_classes

if TYPE_CHECKING:
    from ..cluster.autoscale import AutoscalerPolicy
    from ..cluster.fleet import FleetSchedule

__all__ = ["ExperimentConfig", "PRESETS", "get_preset"]


def _dispatch_policy_names() -> tuple[str, ...]:
    from ..cluster.dispatch import DISPATCH_POLICIES

    return tuple(DISPATCH_POLICIES)


def _node_counts(nodes: Sequence[int]) -> tuple[int, ...]:
    """Whole node counts >= 1; a fractional count is refused, never truncated."""
    try:
        return tuple(require_count(n, "cluster node count", 1) for n in nodes)
    except ParameterError as error:
        raise ExperimentError(str(error)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload and measurement parameters shared by the experiment drivers."""

    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    shape: float = 1.5
    lower_bound: float = 0.1
    upper_bound: float = 100.0
    load_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    base_seed: int = 20040426  # IPDPS 2004 ;-) any fixed integer works
    name: str = "default"
    #: Worker processes per replication batch: 1 = serial, 0 = auto-size to
    #: the CPU count.  Aggregated results are identical for every value.
    workers: int = 1
    #: Node counts swept by the cluster-scaling experiment.
    cluster_nodes: tuple[int, ...] = (1, 2, 4)
    #: Dispatch policies swept by the cluster-scaling experiment; defaults to
    #: every registered :data:`repro.cluster.DISPATCH_POLICIES` name.
    dispatch_policies: tuple[str, ...] = field(default_factory=_dispatch_policy_names)
    #: Capacity mixes swept by the heterogeneous section of the cluster
    #: experiment: named mixes (:data:`repro.cluster.CAPACITY_MIXES`) run on
    #: the largest node count of :attr:`cluster_nodes`; an explicit tuple of
    #: relative node speeds (e.g. from the CLI's ``--capacities 2 1``) fixes
    #: its own fleet size.  ``"uniform"`` entries are covered by the
    #: homogeneous sweep and skipped here.
    capacity_mixes: tuple[str | tuple[float, ...], ...] = ("uniform", "2:1", "pow2")
    #: Fleet-event tokens (``leave:0@200 join:0@400`` — the grammar of
    #: :func:`repro.cluster.parse_fleet_events`, times in the paper's
    #: abstract time units) driving the churn section of the cluster
    #: experiment; empty keeps every fleet static.
    fleet_events: tuple[str, ...] = ()
    #: Admission policy name from :data:`repro.cluster.ADMISSION_POLICIES`
    #: (``None`` = no admission control) applied by the experiments that
    #: honour it (the overload sweep; cluster builds pass it through).
    admission: str | None = None
    #: CLI-style ``key=value`` argument tokens for the admission policy
    #: (``quota_shares=0.45,0.45`` — the grammar of
    #: :func:`repro.cluster.parse_admission_args`).
    admission_args: tuple[str, ...] = ()
    #: Autoscaler policy name from :data:`repro.cluster.AUTOSCALERS`
    #: (``None`` = the autoscale experiment sweeps every registered policy;
    #: a name pins its sweep to that single policy).
    autoscaler: str | None = None
    #: CLI-style ``key=value`` argument tokens for the autoscaler
    #: (``target=0.85 scale_in_cooldown=2000`` — the grammar of
    #: :func:`repro.cluster.parse_autoscaler_args`).
    autoscaler_args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.load_grid:
            raise ExperimentError("load_grid must be non-empty")
        for load in self.load_grid:
            if not (0.0 < load < 1.0):
                raise ExperimentError(f"loads must lie in (0, 1), got {load}")
        if self.workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {self.workers}")
        if not self.cluster_nodes or any(n < 1 for n in self.cluster_nodes):
            raise ExperimentError("cluster_nodes must be a non-empty tuple of counts >= 1")
        if not self.dispatch_policies:
            raise ExperimentError("dispatch_policies must be non-empty")
        known = _dispatch_policy_names()
        unknown = [p for p in self.dispatch_policies if p not in known]
        if unknown:
            raise ExperimentError(
                f"unknown dispatch policies {unknown}; available: {sorted(known)}"
            )
        from ..cluster.capacity import CAPACITY_MIXES, resolve_capacities

        for mix in self.capacity_mixes:
            if isinstance(mix, str):
                if mix not in CAPACITY_MIXES:
                    raise ExperimentError(
                        f"unknown capacity mix {mix!r}; "
                        f"available: {sorted(CAPACITY_MIXES)}"
                    )
            else:
                try:
                    resolve_capacities(mix, len(mix))
                except SimulationError as error:
                    raise ExperimentError(
                        f"explicit capacity mixes need strictly positive, finite node "
                        f"speeds, got {mix!r}: {error}"
                    ) from None
        if self.fleet_events:
            try:
                self.fleet_schedule()
            except SimulationError as error:
                raise ExperimentError(f"bad fleet_events: {error}") from None
        if self.admission_args and self.admission is None:
            raise ExperimentError("admission_args given without an admission policy")
        try:
            self.build_admission_policy()
        except Exception as error:
            raise ExperimentError(f"bad admission policy: {error}") from None
        if self.autoscaler_args and self.autoscaler is None:
            raise ExperimentError("autoscaler_args given without an autoscaler policy")
        try:
            self.build_autoscaler_policy()
        except Exception as error:
            raise ExperimentError(f"bad autoscaler policy: {error}") from None

    # ------------------------------------------------------------------ #
    # Workload helpers
    # ------------------------------------------------------------------ #
    def service_distribution(self) -> BoundedPareto:
        return BoundedPareto(k=self.lower_bound, p=self.upper_bound, alpha=self.shape)

    def classes_for_load(
        self, load: float, deltas: Sequence[float], *, allow_overload: bool = False
    ) -> tuple[TrafficClass, ...]:
        """Equal-load classes at ``load`` with this config's service distribution.

        ``allow_overload=True`` lifts the ``load < 1`` bound for overload
        experiments (admission control is what keeps such runs stable).
        """
        return web_classes(
            len(deltas),
            load,
            deltas,
            service=self.service_distribution(),
            allow_overload=allow_overload,
        )

    def scaled_measurement(self) -> MeasurementConfig:
        """The measurement protocol converted from "time units" to raw time."""
        return self.measurement.scaled_to_time_units(self.service_distribution().mean())

    def build_admission_policy(self) -> AdmissionPolicy | None:
        """A fresh admission policy instance, or ``None`` when unset.

        Built fresh on every call (policies hold per-run state, like server
        models), so replication builds can construct one per worker.
        """
        if self.admission is None:
            return None
        from ..cluster.admission import build_admission

        return build_admission(self.admission, self.admission_args)

    def build_autoscaler_policy(self) -> "AutoscalerPolicy | None":
        """A fresh autoscaler instance, or ``None`` when unset.

        Built fresh on every call (policies hold cooldown/warm-up state),
        so replication builds can construct one per worker.
        """
        if self.autoscaler is None:
            return None
        from ..cluster.autoscale import build_autoscaler

        return build_autoscaler(self.autoscaler, self.autoscaler_args)

    def fleet_schedule(self) -> "FleetSchedule | None":
        """The parsed churn schedule, still in abstract time units.

        Scale it alongside the measurement protocol
        (``schedule.scaled_to_time_units(config.service_distribution().mean())``)
        before handing it to a cluster; ``None`` when no events are
        configured.
        """
        if not self.fleet_events:
            return None
        from ..cluster.fleet import parse_fleet_events

        return parse_fleet_events(self.fleet_events)

    # ------------------------------------------------------------------ #
    # Variations
    # ------------------------------------------------------------------ #
    def with_bounds(
        self, *, shape: float | None = None, upper_bound: float | None = None
    ) -> "ExperimentConfig":
        """Copy with a different Bounded Pareto shape and/or upper bound."""
        return replace(
            self,
            shape=self.shape if shape is None else float(shape),
            upper_bound=self.upper_bound if upper_bound is None else float(upper_bound),
        )

    def with_loads(self, loads: Sequence[float]) -> "ExperimentConfig":
        return replace(self, load_grid=tuple(float(load) for load in loads))

    def with_measurement(self, measurement: MeasurementConfig) -> "ExperimentConfig":
        return replace(self, measurement=measurement)

    def with_workers(self, workers: int) -> "ExperimentConfig":
        """Copy with a different replication worker count (0 = auto)."""
        return replace(self, workers=int(workers))

    def with_cluster(
        self,
        *,
        nodes: Sequence[int] | None = None,
        policies: Sequence[str] | None = None,
        capacity_mixes: "Sequence[str | tuple[float, ...]] | None" = None,
        fleet_events: Sequence[str] | None = None,
    ) -> "ExperimentConfig":
        """Copy with a different cluster-scaling sweep grid."""
        return replace(
            self,
            cluster_nodes=self.cluster_nodes if nodes is None else _node_counts(nodes),
            dispatch_policies=self.dispatch_policies
            if policies is None
            else tuple(str(p) for p in policies),
            capacity_mixes=self.capacity_mixes
            if capacity_mixes is None
            else tuple(
                mix if isinstance(mix, str) else tuple(float(c) for c in mix)
                for mix in capacity_mixes
            ),
            fleet_events=self.fleet_events
            if fleet_events is None
            else tuple(str(token) for token in fleet_events),
        )

    def with_admission(
        self, admission: str | None, args: Sequence[str] | None = None
    ) -> "ExperimentConfig":
        """Copy with a different admission policy (``None`` clears it)."""
        return replace(
            self,
            admission=admission,
            admission_args=()
            if admission is None
            else (self.admission_args if args is None else tuple(str(a) for a in args)),
        )

    def with_autoscaler(
        self, autoscaler: str | None, args: Sequence[str] | None = None
    ) -> "ExperimentConfig":
        """Copy with a different autoscaler policy (``None`` clears it)."""
        return replace(
            self,
            autoscaler=autoscaler,
            autoscaler_args=()
            if autoscaler is None
            else (self.autoscaler_args if args is None else tuple(str(a) for a in args)),
        )


@cache
def _presets() -> dict[str, ExperimentConfig]:
    return {
        "paper": ExperimentConfig(
            measurement=MeasurementConfig.paper(),
            name="paper",
        ),
        "default": ExperimentConfig(
            measurement=MeasurementConfig(
                warmup=4_000.0, horizon=24_000.0, window=1_000.0, replications=10
            ),
            name="default",
        ),
        "quick": ExperimentConfig(
            measurement=MeasurementConfig(
                warmup=500.0, horizon=4_000.0, window=500.0, replications=2
            ),
            load_grid=(0.3, 0.6, 0.9),
            name="quick",
            cluster_nodes=(1, 2),
            dispatch_policies=("round_robin", "jsq"),
            capacity_mixes=("uniform", "2:1"),
        ),
    }


def __getattr__(name: str):
    # ``PRESETS`` is built on first access: the default presets validate
    # the cluster fields, which import cluster modules.
    if name == "PRESETS":
        return _presets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_preset(name: str) -> ExperimentConfig:
    """Look up a preset by name (``paper``, ``default`` or ``quick``)."""
    presets = _presets()
    try:
        return presets[name]
    except KeyError:
        raise ExperimentError(f"unknown preset {name!r}; available: {sorted(presets)}") from None
