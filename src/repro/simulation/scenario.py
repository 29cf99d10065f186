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
The scenario owns the run's :class:`~repro.simulation.ledger.RequestLedger`.
Every arrival appends one row; admitted (and degraded) rows are submitted to
the server model, shed rows keep their origin class with
``DISPOSITION_SHED`` and never enter service.  Completions write timestamps
straight into the ledger's columns.  No per-request Python object or
callback bookkeeping exists on the hot path: the estimation-window
statistics (arrival counts, offered work, measured slowdowns) are computed
at each window boundary by slicing the columns past a cursor — shed rows
filtered out, so the controller allocates for admitted traffic only — and
reducing with ``np.bincount``, which accumulates in input order, so the sums
are bit-identical to the old per-completion ``+=`` loop; the monitor/trace
expose the same ledger without copying.

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
segment instead: the server is drained to the arrival instant, ``decide``
reads the backlog of that instant, and an admitted row is submitted alone.

The window boundary
-------------------
The controller observes the window and its new rates are applied; then one
:class:`~repro.core.WindowObservation` goes to telemetry, the autoscaler
(re-captured after any fleet event) and admission, in that order, before
the next arrival block is drawn.  With none of the three attached nothing
is captured.

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
from .ledger import DISPOSITION_DEGRADED, DISPOSITION_SHED, RequestLedger
from .monitor import MeasurementConfig, WindowedMonitor
from .server_models import RateScalableServers, ServerModel
from .trace import SimulationTrace

__all__ = [
    "RateController",
    "StaticRateController",
    "SimulationResult",
    "Scenario",
]


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


@dataclass
class SimulationResult:
    """Everything a single simulation run produced.

    ``ledger`` is the run's columnar request store and its only record of
    requests: ``trace`` and ``monitor`` are views over it, and the
    post-warm-up summaries below are computed with vectorised NumPy over its
    columns.
    """

    classes: tuple[TrafficClass, ...]
    config: MeasurementConfig
    trace: SimulationTrace
    monitor: WindowedMonitor
    controller: RateController
    ledger: RequestLedger
    rate_history: list[tuple[float, tuple[float, ...]]] = field(default_factory=list)
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
    #: Per-request node choices of a clustered run built with
    #: ``record_dispatch=True`` (``None`` otherwise); rides replication
    #: results so determinism tests can diff dispatch across worker counts.
    dispatch_log: list[int] | None = None
    #: Per-node rate-share history of a clustered run with telemetry
    #: attached — ``(time, ((node0 per-class shares), ...))`` per
    #: ``apply_rates`` call; ``None`` otherwise.  Health snapshots derive
    #: per-node assigned rates and utilisation from it.
    node_share_history: list[tuple[float, tuple[tuple[float, ...], ...]]] | None = None
    #: Wall-clock transport/build profile stamped by the replication runner
    #: (``None`` for results built outside it): transport route, payload
    #: bytes, encode/decode/build seconds, worker pid.
    worker_profile: dict | None = None
    #: Fleet events an autoscaler emitted during the run, in application
    #: order (``None`` when the scenario ran without one).  The same events
    #: also appear in ``fleet_timeline`` as state transitions; this list
    #: keeps the decision sequence itself diffable across worker counts.
    autoscale_events: list | None = None

    # ------------------------------------------------------------------ #
    # Post-warm-up summaries (the quantities the paper reports)
    # ------------------------------------------------------------------ #
    def measured_records(self):
        """Completed requests whose completion falls after the warm-up.

        Materialises one :class:`~repro.simulation.trace.RequestRecord` per
        request — use the vectorised summaries below when aggregates are all
        that is needed.
        """
        return self.trace.in_window(self.config.warmup, float("inf"), by="completion")

    def _measured_ids(self) -> np.ndarray:
        """Ledger row ids measured by the protocol, in completion order."""
        ids = self.ledger.completed_ids
        completion = self.ledger.completion_time[ids]
        return ids[completion >= self.config.warmup]

    def per_class_mean_slowdowns(self) -> tuple[float, ...]:
        return self.monitor._measurement().class_means

    def per_class_mean_waiting_times(self) -> tuple[float, ...]:
        ids = self._measured_ids()
        cls = self.ledger.class_index[ids]
        values = self.ledger.waiting_times(ids)
        return tuple(
            float(np.mean(vals)) if vals.size else float("nan")
            for vals in (values[cls == c] for c in range(len(self.classes)))
        )

    def per_class_completed_work(self) -> tuple[float, ...]:
        """Total full-rate service demand completed per class after warm-up."""
        ids = self._measured_ids()
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
        warm-up and the horizon; the matrix is aligned with the monitor's
        window indexing (see :meth:`WindowedMonitor.availability_series`).
        """
        if self.fleet_timeline is None:
            return None
        if num_windows is None:
            # Floor with a jitter epsilon: scaled (horizon - warmup) / window
            # lands a hair below the exact count for many service-time means,
            # and a bare floor would silently drop the last full window.
            num_windows = int(
                (self.config.horizon - self.config.warmup) / self.config.window + 1e-9
            )
        return self.monitor.availability_series(self.fleet_timeline, num_windows)


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

        self.ledger = RequestLedger(len(self.classes))
        self.trace = SimulationTrace(len(self.classes), ledger=self.ledger)
        self.monitor = WindowedMonitor(
            len(self.classes),
            warmup=config.warmup,
            window=config.window,
            ledger=self.ledger,
        )
        self.rate_history: list[tuple[float, tuple[float, ...]]] = []

        # Window cursors into the ledger: rows (arrival order) and the
        # completion log consumed so far by the estimation-window stats.
        self._row_cursor = 0
        self._done_cursor = 0
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
        if telemetry is not None:
            self.server.attach_telemetry(telemetry)
        self.server.bind(self.engine, self.classes, ledger=self.ledger)
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
        if self.admission is not None and not getattr(self.admission, "window_scoped", False):
            # Live-state admission: every decision is taken at its arrival
            # instant by the walk, segment by segment.
            def segment(lo: int, hi: int) -> None:
                self._admit_walk(times[lo:hi], sizes[lo:hi], classes[lo:hi])

            seg_times = times
        else:
            if self.admission is not None:
                rids, seg_times = self._admit_block(times, sizes, classes)
            else:
                rids, seg_times = self.ledger.append_batch(classes, times, sizes), times

            def segment(lo: int, hi: int) -> None:
                self.server.submit_batch(rids[lo:hi])

        cuts = self.server.block_boundaries(self.engine.now, bound)
        # The model changes state inside this window (cluster fleet events):
        # cut the block there and hand every later segment to a scheduled
        # event at its cut instant, so its arrivals are dispatched under the
        # post-event fleet.  An arrival exactly on a cut lands in the later
        # segment (``side="left"``), and the bind-time fleet event at the
        # same instant carries the lower sequence number, so it fires first.
        edges = [0]
        edges.extend(np.searchsorted(seg_times, np.asarray(cuts), side="left").tolist())
        edges.append(seg_times.shape[0])
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
        self, times: np.ndarray, sizes: np.ndarray, classes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One block-level decision pass for a ``window_scoped`` policy.

        Runs before any fleet cut: such policies see only boundary state,
        so the whole block is decidable here.  Shed rows are appended
        (origin class, SHED disposition) but excluded from submission.
        Returns the admitted row ids and their arrival times.
        """
        decisions = self._decide_block(classes, sizes, times)
        served = classes
        degrade = decisions == int(AdmissionDecision.DEGRADE)
        if degrade.any():
            if bool((classes[degrade] == len(self.classes) - 1).any()):
                raise SimulationError(
                    f"{type(self.admission).__name__} degraded class "
                    f"{len(self.classes) - 1}, which has no lower class"
                )
            served = classes.copy()
            served[degrade] = self._degrade_lut()[classes[degrade]]
            for origin, count in enumerate(
                np.bincount(classes[degrade], minlength=len(self.classes))
            ):
                self._degraded_from[origin] += int(count)
            for target, count in enumerate(
                np.bincount(served[degrade], minlength=len(self.classes))
            ):
                self._degraded_to[target] += int(count)
        shed = decisions == int(AdmissionDecision.SHED)
        if shed.any():
            for origin, count in enumerate(np.bincount(classes[shed], minlength=len(self.classes))):
                self._rejected[origin] += int(count)
        all_rids = self.ledger.append_batch(
            served, times, sizes, dispositions=decisions.astype(np.uint8)
        )
        if self.telemetry is not None:
            self.telemetry.on_admission_block(classes, decisions)
        admitted = ~shed
        return all_rids[admitted], times[admitted]

    def _admit_walk(self, times: np.ndarray, sizes: np.ndarray, classes: np.ndarray) -> None:
        """Decide, record and submit one segment arrival by arrival.

        For live-state policies: before each decision the server is drained
        to the arrival instant and the boundary's observation is re-stamped
        with that instant and its backlog (completions tied with the arrival
        land first).  The segment lies inside one estimation window and
        between two fleet events, so the rates and the fleet stay put while
        the walk runs ahead of the engine clock.
        """
        decide = self.admission.decide
        ledger = self.ledger
        server = self.server
        submit = server.submit_one
        stamp = self._admission_obs._replace
        decisions = np.empty(classes.shape[0], dtype=np.int64)
        for i, (t, size, class_index) in enumerate(
            zip(times.tolist(), sizes.tolist(), classes.tolist())
        ):
            self._sync_completions(t)
            decision = decide(class_index, size, stamp(time=t, backlogs=server.backlogs()))
            if not isinstance(decision, AdmissionDecision):
                raise SimulationError(
                    f"{type(self.admission).__name__}.decide() returned "
                    f"{decision!r}; an AdmissionDecision is required"
                )
            decisions[i] = decision
            if decision is AdmissionDecision.SHED:
                ledger.append(class_index, t, size, disposition=DISPOSITION_SHED)
                self._rejected[class_index] += 1
                continue
            if decision is AdmissionDecision.DEGRADE:
                target = self._degrade_target(class_index)
                self._degraded_from[class_index] += 1
                self._degraded_to[target] += 1
                rid = ledger.append(target, t, size, disposition=DISPOSITION_DEGRADED)
            else:
                target = class_index
                rid = ledger.append(class_index, t, size)
            submit(rid, target, t, size)
        if self.telemetry is not None:
            self.telemetry.on_admission_block(classes, decisions)

    def _sync_completions(self, now: float) -> None:
        """Drain the server model to ``now`` and log the merged completions."""
        rids = self.server.drain(now)
        if rids.size:
            self.ledger.log_completions(rids)
        if self.telemetry is not None:
            self.telemetry.on_drain(now, int(rids.size))

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

    def _window_stats(self) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
        """Arrivals, offered work and mean slowdowns since the last boundary.

        Slices the ledger columns past the window cursors and reduces with
        ``np.bincount``, which accumulates in input order — the sums are
        bit-identical to per-request ``+=`` bookkeeping.
        """
        num_classes = len(self.classes)
        row_end = len(self.ledger)
        arrived = self.ledger.class_index[self._row_cursor : row_end]
        sizes = self.ledger.size[self._row_cursor : row_end]
        if self.admission is not None:
            # Shed rows never enter service: the controller allocates rates
            # for admitted traffic only.  The filter preserves relative
            # order, so the bincount sums stay bit-identical to a run that
            # never appended the shed rows.
            kept = self.ledger.disposition[self._row_cursor : row_end] != DISPOSITION_SHED
            if not kept.all():
                arrived = arrived[kept]
                sizes = sizes[kept]
        self._row_cursor = row_end
        arrivals = np.bincount(arrived, minlength=num_classes)
        work = np.bincount(arrived, weights=sizes, minlength=num_classes)

        done_end = self.ledger.num_completed
        done = self.ledger.completed_ids[self._done_cursor : done_end]
        self._done_cursor = done_end
        completed = self.ledger.class_index[done]
        slowdown_sums = np.bincount(
            completed, weights=self.ledger.slowdowns(done), minlength=num_classes
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
        # Completions first: everything the servers finished up to this
        # boundary must be in the ledger before the window statistics are cut.
        now = self.engine.now
        self._sync_completions(now)
        arrivals, work, slowdowns = self._window_stats()
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
        next_boundary = self.engine.now + self.config.window
        bound = min(next_boundary, self.config.horizon)
        if bound > self.engine.now:
            self._queue_block(bound)
        if next_boundary <= self.config.horizon:
            self.engine.schedule_at(next_boundary, self._window_boundary, label="window")

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
        # apply before the first block is dispatched.
        self.engine.schedule_at(
            0.0,
            partial(self._queue_block, min(self.config.window, self.config.horizon)),
            label="block",
        )
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
            trace=self.trace,
            monitor=self.monitor,
            controller=self.controller,
            rate_history=self.rate_history,
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
            dispatch_log=getattr(self.server, "dispatch_log", None)
            if getattr(self.server, "record_dispatch", False)
            else None,
            node_share_history=getattr(self.server, "share_history", None),
            autoscale_events=list(self.autoscale_events) if self.autoscaler is not None else None,
        )
