"""The composable simulation scenario: common assembly for every server model.

Every PSD simulation — the paper's idealised Fig. 1 model, the realistic
shared-processor variant, or any future server model — shares the same
skeleton: per-class request sources feed requests through an (optional)
admission policy into the serving substrate; the request ledger records
every request (the windowed monitor and the trace are views over it); at
every estimation-window boundary the controller observes the window's
arrivals, work and measured slowdowns and re-allocates the per-class
processing rates, which are pushed back into the server model.

:class:`Scenario` owns that skeleton once.  The serving substrate is a
pluggable :class:`~repro.simulation.server_models.ServerModel`; the
controller is any :class:`RateController` (the adaptive
:class:`repro.core.PsdController` by default).  The paper's Fig. 1 model is
``Scenario(classes, config)`` (``server`` defaults to
:class:`~repro.simulation.server_models.RateScalableServers`); a shared
processor is ``server=SharedProcessorServer(scheduler, capacity=...)``.

Columnar lifecycle
------------------
The scenario owns the run's :class:`~repro.simulation.ledger.RequestLedger`,
sized once from the rows the classes declare.  Every arrival appends one
row; admitted (and degraded) rows go to the server model with the columns
just appended, shed rows keep their origin class with ``DISPOSITION_SHED``
and never enter service.  Completions write timestamps straight into the
ledger, and each drain is logged with the times it holds.  Nothing written
is read back on the hot path: a window's arrival counts and offered work
are tallied from the admitted rows of its appends (the controller
allocates for admitted traffic only), its measured slowdowns from the rows
its boundary drain returned, each with one ``np.bincount`` in row or log
order (several appends are joined first), so the sums are bit-identical to
a per-request ``+=`` loop; the monitor/trace read the same ledger.

The batched pipeline
--------------------
Arrivals are pre-drawn one estimation window at a time: each class's source
draws its block, the blocks are merged in time order, appended to the ledger
in one call and submitted to the server model, which serves them ahead of
the engine clock.  Completions are drained in bulk at every window boundary
(and wherever the model changes state), so the engine processes one event
per window rather than several per request.  Blocks are cut at the server
model's :meth:`~repro.simulation.server_models.ServerModel.block_boundaries`
(cluster fleet events); each later segment is submitted at its cut instant.

Admission
---------
``window_scoped`` admission policies (see :mod:`repro.core.admission`) see
only boundary state, so each arrival block gets one
:meth:`~repro.core.AdmissionPolicy.decide_block` call at the window
boundary, before the block is cut.  Policies reading live per-arrival state
(``window_scoped = False``) are walked arrival by arrival inside each
segment instead: the server model's ``walk`` hands ``decide`` the backlog
of each arrival instant from state it already keeps (the pending counts of
the bank's completion calendar) without draining anything, and places the
admitted rows; the segment's decisions are then recorded like a decided
block.

The window boundary
-------------------
The controller observes the window and its new rates are applied; then one
:class:`~repro.core.WindowObservation` goes to telemetry, the autoscaler
(re-captured after any fleet event) and admission, in that order, before
the next arrival block is drawn.  With none of the three attached nothing
is captured.  Every boundary, telemetry or not, ends with one row of the
run's :class:`WindowTable`.

All durations (warm-up, horizon, window) are interpreted in the same units
as the service-time distributions — use
:meth:`repro.simulation.MeasurementConfig.scaled_to_time_units` to convert a
protocol expressed in the paper's abstract "time units" (multiples of the
mean service time).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from ..core.admission import AdmissionDecision
from ..core.controller import PsdController
from ..core.observation import WindowObservation
from ..core.psd import PsdSpec
from ..distributions.rng import spawn_generators
from ..errors import ParameterError, SimulationError
from ..types import TrafficClass
from ..validation import require_non_negative
from .engine import SimulationEngine
from .generator import RequestSource, sources_from_classes
from .ledger import DEFAULT_CAPACITY, RequestLedger
from .monitor import MeasurementConfig, WindowedMonitor, fleet_availability
from .server_models import RateScalableServers, ServerModel

__all__ = [
    "RateController",
    "StaticRateController",
    "SimulationResult",
    "Scenario",
    "WindowTable",
]

def _ledger_capacity(classes: Sequence[TrafficClass], horizon: float) -> int:
    """A run's declared rows (the class rates summed, times the horizon)
    plus 5% and :data:`DEFAULT_CAPACITY` of headroom, at most 2**22."""
    expected = sum(cls.arrival_rate for cls in classes) * horizon
    return int(1.05 * expected) + DEFAULT_CAPACITY if expected < 1 << 22 else 1 << 22


class RateController:
    """Protocol-style base for rate controllers driven by the simulation.

    A controller exposes the rate vector currently in force and accepts one
    observation per estimation window: the window's per-class arrivals,
    offered work and measured mean slowdowns (open-loop controllers ignore
    the slowdowns).  :class:`repro.core.PsdController`
    implements this interface; :class:`StaticRateController` provides a
    non-adaptive alternative used by the baseline and ablation benches.
    """

    @property
    def current_rates(self) -> tuple[float, ...]:  # pragma: no cover - interface
        raise NotImplementedError

    def observe_window(
        self,
        time: float,
        window_length: float,
        arrivals: Sequence[int],
        work: Sequence[float],
        slowdowns: Sequence[float] | None = None,
    ):  # pragma: no cover - interface
        raise NotImplementedError


class StaticRateController(RateController):
    """A controller that never changes its rate vector."""

    def __init__(self, rates: Sequence[float]) -> None:
        rates = tuple(rates)
        if not rates:
            raise SimulationError("rates must be a non-empty vector of non-negative values")
        try:
            self._rates = tuple(require_non_negative(r, f"rates[{i}]") for i, r in enumerate(rates))
        except ParameterError as exc:
            raise SimulationError(str(exc)) from None
        self.observations = 0

    @property
    def current_rates(self) -> tuple[float, ...]:
        return self._rates

    def observe_window(self, time, window_length, arrivals, work, slowdowns=None):
        self.observations += 1
        return None


def _ratios_to_first(means: Sequence[float]) -> tuple[float, ...]:
    """``means`` over ``means[0]``; all NaN when ``means[0]`` is 0 or NaN."""
    first = means[0] or math.nan  # x / NaN is NaN
    return tuple(m / first for m in means)


class WindowTable(NamedTuple):
    """A run's control record: one row at t=0 and one per window boundary.

    Each boundary row is written after the boundary's new rates and any
    autoscaler fleet events are applied, so it describes the allocation
    and the fleet that serve the next window; row 0's cluster columns
    likewise follow the fleet events scheduled at t=0.  ``time`` ``(W,)`` and
    ``rates`` ``(W, C)`` (the controller's allocation) exist for every run.
    A clustered run adds ``node_shares`` ``(W, N, C)``, the partition the
    cluster last applied (before the capacity clamp; zeros for non-live
    nodes, and before the first partition), and ``node_backlog`` ``(W, N)``,
    each node's pending requests; a single-server run has ``None`` there.
    A fleet event strictly inside a window re-partitions the rates without
    writing a row.
    """

    time: np.ndarray
    rates: np.ndarray
    node_shares: np.ndarray | None = None
    node_backlog: np.ndarray | None = None


def _empty_table() -> WindowTable:
    return WindowTable(np.empty(0), np.empty((0, 0)))


@dataclass
class SimulationResult:
    """Everything a single simulation run produced.

    ``ledger`` is the run's columnar request store and its only record of
    requests (a clustered run's ledger also holds each row's serving node):
    ``monitor`` is a view over it, and the post-warm-up summaries below are
    computed with vectorised NumPy over its columns.
    """

    classes: tuple[TrafficClass, ...]
    config: MeasurementConfig
    monitor: WindowedMonitor
    controller: RateController
    ledger: RequestLedger
    #: The run's per-window control record (see :class:`WindowTable`).
    window_table: WindowTable = field(default_factory=_empty_table)
    generated_counts: tuple[int, ...] = ()
    completed_counts: tuple[int, ...] = ()
    #: Shed requests per *origin* class (the admission ladder's SHED leg).
    rejected_counts: tuple[int, ...] = ()
    #: Degraded requests per *origin* class; the rows live in the ledger
    #: under their downgraded class (see ``degraded_into_counts``).
    degraded_counts: tuple[int, ...] = ()
    #: Degraded requests per *target* class.
    degraded_into_counts: tuple[int, ...] = ()
    #: Fleet history of a clustered run — ``(time, node_states, capacities)``
    #: entries copied from :attr:`repro.cluster.ClusterServerModel.
    #: fleet_timeline`; ``None`` for non-cluster servers.
    fleet_timeline: list[tuple[float, tuple[str, ...], tuple[float | None, ...]]] | None = None
    #: Wall-clock transport/build profile stamped by the replication runner
    #: (``None`` for results built outside it): transport route, payload
    #: bytes, encode/decode/build seconds, worker pid.
    worker_profile: dict | None = None
    #: Fleet events an autoscaler emitted during the run, in application
    #: order (``None`` when the scenario ran without one).  The same events
    #: also appear in ``fleet_timeline`` as state transitions; this list
    #: keeps the decision sequence itself diffable across worker counts.
    autoscale_events: list | None = None

    @property
    def rate_history(self) -> list[tuple[float, tuple[float, ...]]]:
        """``(time, rates)`` per row of :attr:`window_table`, as Python floats."""
        table = self.window_table
        return [(t, tuple(row)) for t, row in zip(table.time.tolist(), table.rates.tolist())]

    # ------------------------------------------------------------------ #
    # Post-warm-up summaries (the quantities the paper reports)
    # ------------------------------------------------------------------ #
    def measured_ids(self) -> np.ndarray:
        """Ledger row ids measured by the protocol (completed after the
        warm-up), in completion order: ``ledger.slowdowns(measured_ids())``
        are the measured requests' slowdowns."""
        ids = self.ledger.completed_ids
        completion = self.ledger.completion_time[ids]
        return ids[completion >= self.config.warmup]

    def per_class_mean_slowdowns(self) -> tuple[float, ...]:
        return self.monitor._measurement().class_means

    def per_class_mean_waiting_times(self) -> tuple[float, ...]:
        ids = self.measured_ids()
        cls = self.ledger.class_index[ids]
        values = self.ledger.waiting_times(ids)
        return tuple(
            float(np.mean(vals)) if vals.size else float("nan")
            for vals in (values[cls == c] for c in range(len(self.classes)))
        )

    def per_class_completed_work(self) -> tuple[float, ...]:
        """Total full-rate service demand completed per class after warm-up."""
        ids = self.measured_ids()
        work = np.bincount(
            self.ledger.class_index[ids],
            weights=self.ledger.size[ids],
            minlength=len(self.classes),
        )
        return tuple(float(w) for w in work)

    def system_mean_slowdown(self) -> float:
        return self.monitor._measurement().system_mean

    def slowdown_ratios_to_first(self) -> tuple[float, ...]:
        """Each class's mean slowdown over class 1's (NaN when class 1's is 0 or NaN)."""
        return _ratios_to_first(self.per_class_mean_slowdowns())

    def shed_fraction(self) -> float:
        """Fraction of generated requests the admission policy shed."""
        total = sum(self.generated_counts)
        return sum(self.rejected_counts) / total if total else 0.0

    def degraded_fraction(self) -> float:
        """Fraction of generated requests admitted at a downgraded class."""
        total = sum(self.generated_counts)
        return sum(self.degraded_counts) / total if total else 0.0

    def per_node_availability(self, num_windows: int | None = None):
        """Per-window per-node live fractions, or ``None`` without fleet data.

        ``num_windows`` defaults to every full measurement window between
        warm-up and the horizon.  Row ``i`` is the monitor's window ``i``,
        ``[warmup + i * window, warmup + (i + 1) * window)``; map a
        :class:`~repro.simulation.WindowSample` to it with ``round((start -
        warmup) / window)``, since window starts carry float jitter.
        """
        if self.fleet_timeline is None:
            return None
        config = self.config
        if num_windows is None:
            # Floor with a jitter epsilon: scaled (horizon - warmup) / window
            # lands a hair below the exact count for many service-time means,
            # and a bare floor would silently drop the last full window.
            num_windows = int((config.horizon - config.warmup) / config.window + 1e-9)
        return fleet_availability(
            self.fleet_timeline,
            warmup=self.monitor.warmup,
            window=self.monitor.window,
            num_windows=num_windows,
        )


class Scenario:
    """One simulation run: sources + admission + server model + controller.

    Parameters
    ----------
    classes:
        The traffic classes sharing the server.
    config:
        Measurement protocol (warm-up, horizon, estimation window).
    server:
        The serving substrate; defaults to the paper's idealised
        :class:`~repro.simulation.server_models.RateScalableServers`.  Server
        models hold per-run state, so pass a *fresh* instance per scenario.
    spec / controller:
        Either a :class:`~repro.core.PsdSpec` (an adaptive
        :class:`~repro.core.PsdController` is built from it) or an explicit
        :class:`RateController`.  With neither, the spec defaults to the
        classes' own deltas.
    seed / sources:
        Either a seed (one RNG stream is spawned per class and Poisson
        sources are built from the classes) or explicit request sources.
    admission:
        Optional :class:`repro.core.AdmissionPolicy`.  Every arrival gets a
        ledger row; the policy's decision picks its fate — ``ACCEPT`` rows
        are served as-is, ``DEGRADE`` rows are re-classed to the policy's
        :meth:`~repro.core.AdmissionPolicy.degrade_target` and served there,
        ``SHED`` rows are recorded (disposition column) but never submitted.
        Its ``observe_window(obs)`` gets a time-0 observation at run start
        and the boundary's :class:`~repro.core.WindowObservation` last at
        every boundary, so it budgets from the fleet serving the next window.
    autoscaler:
        Optional :class:`repro.cluster.AutoscalerPolicy` (duck-typed: any
        object with an ``observe_boundary(obs)`` hook returning fleet
        events).  At every boundary it receives the same observation as
        telemetry, after the controller's new rates are applied; its events
        are applied to the server synchronously, before admission
        re-budgets and before the next window's arrival block is drawn.
        Requires a server exposing ``apply_fleet_event`` (clusters); the
        events ride the result as ``autoscale_events``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` facade.  ``None`` (the
        default) is the no-op fast path: every instrumented site reduces to
        one ``is not None`` check and the run's aggregates are bit-identical
        to a scenario without the parameter.  With a facade the scenario
        installs its engine clock, registers the engine event listener (when
        enabled) and feeds the batch/drain/admission hooks, plus
        ``on_window(scenario, obs)`` first at every boundary.
    """

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        config: MeasurementConfig,
        *,
        server: ServerModel | None = None,
        spec: PsdSpec | None = None,
        controller: RateController | None = None,
        seed: int | np.random.SeedSequence | None = 0,
        sources: Sequence[RequestSource] | None = None,
        admission: "AdmissionPolicy | None" = None,
        autoscaler: "AutoscalerPolicy | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not classes:
            raise SimulationError("classes must be non-empty")
        self.classes = tuple(classes)
        self.config = config
        self.admission = admission
        self.autoscaler = autoscaler
        self.autoscale_events: list = []
        self.engine = SimulationEngine()
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_clock(lambda: self.engine.now)
            if telemetry.enabled:
                self.engine.set_listener(telemetry.on_event)
        if controller is None:
            if spec is None:
                spec = PsdSpec(tuple(cls.delta for cls in classes))
            controller = PsdController(self.classes, spec)
        self.controller = controller
        if sources is None:
            rngs = spawn_generators(seed, len(self.classes))
            sources = sources_from_classes(self.classes, rngs)
        if len(sources) != len(self.classes):
            raise SimulationError("one request source per class is required")
        self.sources = list(sources)

        self.ledger = RequestLedger(
            len(self.classes), capacity=_ledger_capacity(self.classes, config.horizon)
        )
        self.monitor = WindowedMonitor(
            len(self.classes),
            warmup=config.warmup,
            window=config.window,
            ledger=self.ledger,
        )
        self.rate_history: list[tuple[float, tuple[float, ...]]] = []

        #: The admitted ``(classes, sizes)`` of each append this window.
        self._arrived: list[tuple[np.ndarray, np.ndarray]] = []
        self._rejected = [0] * len(self.classes)
        self._degraded_from = [0] * len(self.classes)
        self._degraded_to = [0] * len(self.classes)
        # Validated degrade targets per origin class, resolved lazily (the
        # degrade_target contract: a pure function of the origin class).
        self._degrade_targets: dict[int, int] = {}
        #: Admission's last observation, read by decisions until the next.
        self._admission_obs: WindowObservation | None = None

        initial_rates = self.controller.current_rates
        if len(initial_rates) != len(self.classes):
            raise SimulationError("controller rate vector length does not match classes")
        self.server = server if server is not None else RateScalableServers()
        if autoscaler is not None and not hasattr(self.server, "apply_fleet_event"):
            raise SimulationError(
                f"{type(self.server).__name__} does not accept runtime fleet "
                f"events (no apply_fleet_event); autoscalers require a cluster "
                f"server model"
            )
        self._walks = admission is not None and not getattr(admission, "window_scoped", False)
        if self._walks and not hasattr(self.server, "walk"):
            raise SimulationError(
                f"{type(admission).__name__} reads the backlog at every arrival, which "
                f"{type(self.server).__name__} keeps only when drained; use a bank or cluster"
            )
        if telemetry is not None:
            self.server.attach_telemetry(telemetry)
        self.server.bind(self.engine, self.classes, ledger=self.ledger)
        # A cluster (read duck-typed, like WindowObservation.capture) adds
        # its partition and per-node backlog to every window-table row.
        clustered = getattr(self.server, "live_nodes", None) is not None
        self._node_shares: list | None = [] if clustered else None
        self._node_backlog: list[list[int]] = []
        self.server.apply_rates(initial_rates)
        self.rate_history.append((0.0, tuple(initial_rates)))

    # ------------------------------------------------------------------ #
    # Arrival blocks
    # ------------------------------------------------------------------ #
    def _queue_block(self, bound: float, *, inclusive: bool = False) -> None:
        """Pre-draw and submit every arrival before ``bound``.

        One ``append_batch`` + ``submit_batch`` per estimation window
        replaces one engine event per arrival.  Per-class blocks are merged
        with a stable argsort on arrival time, so rows keep global time
        order and same-time arrivals keep class order — the order one event
        per arrival gives simultaneous first arrivals (scheduled class by
        class); later cross-class ties are ordered by class here versus by
        scheduling sequence there, a measure-zero distinction for
        continuous workloads.
        """
        per_class = [source.draw_block(bound, inclusive=inclusive) for source in self.sources]
        sizes_per_class = [block[0].shape[0] for block in per_class]
        total = sum(sizes_per_class)
        if total == 0:
            return
        times = np.concatenate([block[0] for block in per_class])
        sizes = np.concatenate([block[1] for block in per_class])
        classes = np.repeat(np.arange(len(self.sources), dtype=np.int64), sizes_per_class)
        order = np.argsort(times, kind="stable")
        times, sizes, classes = times[order], sizes[order], classes[order]
        if self._walks:
            # Live-state admission: every decision is taken at its arrival
            # instant by the walk, segment by segment.
            def segment(lo: int, hi: int) -> None:
                self._admit_walk(times[lo:hi], sizes[lo:hi], classes[lo:hi])

        else:
            if self.admission is not None:
                decisions = self._decide_block(classes, sizes, times)
                rids, times, classes, sizes = self._admit_block(times, sizes, classes, decisions)
            else:
                rids = self.ledger.append_batch(classes, times, sizes)
                self._arrived.append((classes, sizes))

            def segment(lo: int, hi: int) -> None:
                self.server.submit_batch(rids[lo:hi], classes[lo:hi], times[lo:hi], sizes[lo:hi])

        cuts = self.server.block_boundaries(self.engine.now, bound)
        # The model changes state inside this window (cluster fleet events):
        # cut the block there and hand every later segment to a scheduled
        # event at its cut instant, so its arrivals are dispatched under the
        # post-event fleet.  An arrival exactly on a cut lands in the later
        # segment (``side="left"``), and the bind-time fleet event at the
        # same instant carries the lower sequence number, so it fires first.
        edges = [0]
        edges.extend(np.searchsorted(times, np.asarray(cuts), side="left").tolist())
        edges.append(times.shape[0])
        for index, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if hi == lo:
                continue
            if index == 0:
                segment(lo, hi)
            else:
                self.engine.schedule_at(cuts[index - 1], partial(segment, lo, hi), label="block")
        if self.telemetry is not None:
            self.telemetry.on_batch(self.engine.now, total)

    def _admit_block(
        self, times: np.ndarray, sizes: np.ndarray, classes: np.ndarray, decisions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Record a decided block or walked segment: tallies, ledger rows
        (degraded under their target class; shed under their origin class,
        never submitted) and telemetry.  Returns the admitted rows: their
        ids, arrival times, serving classes and sizes.
        """
        n = len(self.classes)
        # Per (decision, origin class) counts, one pass: ACCEPT, DEGRADE and
        # SHED are 0, 1 and 2.
        counts = np.bincount(decisions * n + classes, minlength=3 * n).tolist()
        degraded, shed = counts[n : 2 * n], counts[2 * n :]
        served = classes
        if any(degraded):
            if degraded[-1]:
                raise SimulationError(
                    f"{type(self.admission).__name__} degraded class "
                    f"{n - 1}, which has no lower class"
                )
            lut = self._degrade_lut()
            degrade = decisions == int(AdmissionDecision.DEGRADE)
            served = classes.copy()
            served[degrade] = lut[classes[degrade]]
            for origin, target in enumerate(lut.tolist()):
                self._degraded_from[origin] += degraded[origin]
                self._degraded_to[target] += degraded[origin]
        for origin, count in enumerate(shed):
            self._rejected[origin] += count
        all_rids = self.ledger.append_batch(
            served, times, sizes, dispositions=decisions.astype(np.uint8)
        )
        if self.telemetry is not None:
            self.telemetry.on_admission_block(classes, decisions)
        if any(shed):
            admitted = decisions != int(AdmissionDecision.SHED)
            all_rids, times, served, sizes = (
                column[admitted] for column in (all_rids, times, served, sizes)
            )
        self._arrived.append((served, sizes))
        return all_rids, times, served, sizes

    def _admit_walk(self, times: np.ndarray, sizes: np.ndarray, classes: np.ndarray) -> None:
        """Decide one segment arrival by arrival, then record it as a block.

        For live-state policies: the server's ``walk`` hands every arrival
        the backlog of its instant, and ``decide`` gets the boundary's
        observation re-stamped with that instant and backlog.  The segment
        lies inside one estimation window and between two fleet events, so
        the rates and the fleet stay put while the walk runs ahead of the
        engine clock.  The walk placed the admitted rows on the bank's
        completion calendar, so once they are appended only a cluster's
        node column is left to write.
        """
        decide = self.admission.decide
        stamp = self._admission_obs._replace
        accept, shed = AdmissionDecision.ACCEPT, AdmissionDecision.SHED
        decisions: list[int] = []
        record = decisions.append

        def admit(t: float, class_index: int, size: float, backlogs: tuple[int, ...]) -> int:
            decision = decide(class_index, size, stamp(time=t, backlogs=backlogs))
            if not isinstance(decision, AdmissionDecision):
                raise SimulationError(
                    f"{type(self.admission).__name__}.decide() returned "
                    f"{decision!r}; an AdmissionDecision is required"
                )
            record(decision)
            if decision is accept:
                return class_index
            return -1 if decision is shed else self._degrade_target(class_index)

        nodes = self.server.walk(times, sizes, classes, len(self.ledger), admit)
        decided = np.fromiter(decisions, np.int64, len(decisions))
        rids = self._admit_block(times, sizes, classes, decided)[0]
        if self.ledger.node is not None:
            self.ledger.assign_nodes(rids, nodes)

    def _sync_completions(self, now: float) -> tuple[np.ndarray, np.ndarray | None]:
        """Drain the server model to ``now``, log the merged completions and
        return them with their times (``None`` if the model keeps none)."""
        rids = self.server.drain(now)
        times = self.server.drained_times
        if rids.size:
            self.ledger.log_completions(rids, times)
        if self.telemetry is not None:
            self.telemetry.on_drain(now, int(rids.size))
        return rids, times

    def _decide_block(
        self, classes: np.ndarray, sizes: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        decisions = self.admission.decide_block(classes, sizes, times, self._admission_obs)
        decisions = np.asarray(decisions, dtype=np.int64)
        if decisions.shape != classes.shape:
            raise SimulationError(
                f"{type(self.admission).__name__}.decide_block() returned "
                f"{decisions.shape[0] if decisions.ndim == 1 else decisions.shape} "
                f"decisions for {classes.shape[0]} arrivals"
            )
        if decisions.size and (
            decisions.min() < int(AdmissionDecision.ACCEPT)
            or decisions.max() > int(AdmissionDecision.SHED)
        ):
            raise SimulationError(
                f"{type(self.admission).__name__}.decide_block() returned values "
                "outside the AdmissionDecision range"
            )
        return decisions

    def _degrade_target(self, class_index: int) -> int:
        """Resolve and validate a policy's degrade target for one class."""
        target = self._degrade_targets.get(class_index)
        if target is None:
            target = int(self.admission.degrade_target(class_index))
            if not class_index < target < len(self.classes):
                raise SimulationError(
                    f"{type(self.admission).__name__}.degrade_target({class_index}) "
                    f"returned {target}; a strictly lower class in "
                    f"({class_index}, {len(self.classes)}) is required"
                )
            self._degrade_targets[class_index] = target
        return target

    def _degrade_lut(self) -> np.ndarray:
        """Per-class degrade targets as a gather table (block decisions).

        The last class has no lower class; the caller rejects DEGRADE
        decisions for it before gathering, so its slot is never read.
        """
        num_classes = len(self.classes)
        lut = np.empty(num_classes, dtype=np.int64)
        for c in range(num_classes - 1):
            lut[c] = self._degrade_target(c)
        lut[num_classes - 1] = num_classes - 1
        return lut

    def _tally_window(
        self, done: np.ndarray, times: np.ndarray | None
    ) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
        """Arrivals and offered work of the window's appends, and the mean
        slowdowns of the rows ``done`` its boundary drain returned, completed
        at ``times``: each one ``np.bincount``, which accumulates in input
        order — bit-identical to per-request ``+=`` bookkeeping."""
        num_classes = len(self.classes)
        arrived, self._arrived = self._arrived, []
        if len(arrived) == 1:
            classes, sizes = arrived[0]
        else:  # no append this window, or segments cut at fleet events
            classes = np.concatenate([np.empty(0, np.int64), *(block[0] for block in arrived)])
            sizes = np.concatenate([np.empty(0), *(block[1] for block in arrived)])
        arrivals = np.bincount(classes, minlength=num_classes)
        work = np.bincount(classes, weights=sizes, minlength=num_classes)

        completed = self.ledger.classes_of(done)
        slowdown_sums = np.bincount(
            completed, weights=self.ledger.slowdowns(done, times), minlength=num_classes
        )
        slowdown_counts = np.bincount(completed, minlength=num_classes)
        slowdowns = tuple(
            (float(s) / int(c)) if c else float("nan")
            for s, c in zip(slowdown_sums, slowdown_counts)
        )
        return (
            tuple(int(a) for a in arrivals),
            tuple(float(w) for w in work),
            slowdowns,
        )

    def _observe(self, arrivals, work, slowdowns, rates) -> WindowObservation:
        allocation = getattr(self.controller, "current_allocation", None)
        n = len(self.classes)
        estimated = allocation.offered_loads if allocation is not None else (0.0,) * n
        return WindowObservation.capture(
            self.server,
            time=self.engine.now,
            window=self.config.window,
            arrivals=arrivals,
            work=work,
            slowdowns=slowdowns,
            rates=rates,
            estimated_loads=estimated,
        )

    def _window_boundary(self) -> None:
        # Completions first: the window's slowdowns are those of every row
        # the servers finished up to this boundary.
        now = self.engine.now
        arrivals, work, slowdowns = self._tally_window(*self._sync_completions(now))
        self.controller.observe_window(now, self.config.window, arrivals, work, slowdowns=slowdowns)
        rates = tuple(self.controller.current_rates)
        self.server.apply_rates(rates)
        self.rate_history.append((now, rates))
        if self.telemetry is not None or self.autoscaler is not None or self.admission is not None:
            obs = self._observe(arrivals, work, slowdowns, rates)
            if self.telemetry is not None:
                self.telemetry.on_window(self, obs)
            if self.autoscaler is not None:
                # Fleet events apply synchronously, before admission
                # re-budgets and before the next arrival block is drawn.
                events = self.autoscaler.observe_boundary(obs)
                if events:
                    for event in events:
                        self.server.apply_fleet_event(event)
                    self.autoscale_events.extend(events)
                    if self.telemetry is not None:
                        self.telemetry.on_autoscale(events, self.server)
                    # Admission budgets from the fleet that serves the next
                    # window.
                    obs = self._observe(arrivals, work, slowdowns, rates)
            if self.admission is not None:
                self._admission_obs = obs
                self.admission.observe_window(obs)
        self._record_fleet()
        next_boundary = self.engine.now + self.config.window
        bound = min(next_boundary, self.config.horizon)
        if bound > self.engine.now:
            self._queue_block(bound)
        if next_boundary <= self.config.horizon:
            self.engine.schedule_at(next_boundary, self._window_boundary, label="window")

    def _first_block(self) -> None:
        """t=0: row 0's fleet columns, then the first window's arrivals."""
        self._record_fleet()
        self._queue_block(min(self.config.window, self.config.horizon))

    def _record_fleet(self) -> None:
        """A cluster's columns of the :class:`WindowTable` row, written after
        the boundary's fleet events: the fleet that serves the next window."""
        if self._node_shares is not None:
            self._node_shares.append(self.server.shares)
            self._node_backlog.append([sum(row) for row in self.server.pending_table])

    def _window_table(self) -> WindowTable:
        history = self.rate_history
        table = WindowTable(
            np.array([time for time, _ in history], dtype=np.float64),
            np.array([rates for _, rates in history], dtype=np.float64),
        )
        if self._node_shares is None:
            return table
        shape = (len(history), self.server.num_nodes, len(self.classes))
        shares = np.zeros(shape)
        for row, partition in enumerate(self._node_shares):
            if partition is not None:
                shares[row] = partition
        return table._replace(
            node_shares=shares,
            node_backlog=np.array(self._node_backlog, dtype=np.int64).reshape(shape[:2]),
        )

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return the collected results."""
        if self.telemetry is not None:
            self.telemetry.on_run_start(self)
        if self.admission is not None:
            # The initial window observation (time 0, initial allocation):
            # budget-style policies derive their first window's quotas here.
            n = len(self.classes)
            rates = tuple(self.controller.current_rates)
            self._admission_obs = self._observe((0,) * n, (0.0,) * n, (math.nan,) * n, rates)
            self.admission.observe_window(self._admission_obs)
        # Scheduled rather than submitted synchronously: fleet events at t=0
        # were scheduled at bind time (lower sequence numbers), so they
        # apply before row 0's fleet columns are written and the first
        # block is dispatched.
        self.engine.schedule_at(0.0, self._first_block, label="block")
        self.engine.schedule_at(self.config.window, self._window_boundary, label="window")
        self.engine.run_until(self.config.horizon)
        # Arrivals landing exactly on the horizon come after the final
        # window boundary; release them now, then flush the servers' last
        # partial window of completions.
        self._queue_block(self.config.horizon, inclusive=True)
        self._sync_completions(self.config.horizon)
        num_classes = len(self.classes)
        # Every arrival — admitted, degraded or shed — has a ledger row.
        # Shed rows sit under their origin class; degraded rows under their
        # target class, so generation counts shift them back to the class
        # that generated them.
        rows = np.bincount(self.ledger.class_index, minlength=num_classes)
        completed = np.bincount(
            self.ledger.class_index[self.ledger.completed_ids], minlength=num_classes
        )
        if self.telemetry is not None:
            self.telemetry.on_run_end(self)
        return SimulationResult(
            classes=self.classes,
            config=self.config,
            monitor=self.monitor,
            controller=self.controller,
            window_table=self._window_table(),
            generated_counts=tuple(
                int(n) + source - target
                for n, source, target in zip(rows, self._degraded_from, self._degraded_to)
            ),
            completed_counts=tuple(int(c) for c in completed),
            rejected_counts=tuple(self._rejected),
            degraded_counts=tuple(self._degraded_from),
            degraded_into_counts=tuple(self._degraded_to),
            ledger=self.ledger,
            fleet_timeline=getattr(self.server, "fleet_timeline", None),
            autoscale_events=list(self.autoscale_events) if self.autoscaler is not None else None,
        )
