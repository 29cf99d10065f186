"""The :class:`Telemetry` facade: every instrumentation hook in one object.

A scenario (and, through it, the server models, cluster and engine) accepts
an optional ``telemetry`` argument.  ``None`` — the default — is the no-op
fast path: every instrumented call site guards with ``is not None``, so a
run without telemetry executes exactly the pre-telemetry instruction stream
and its aggregates stay bit-identical.  A disabled facade
(``Telemetry(enabled=False)``) is the next-cheapest tier: hooks are invoked
but return after one attribute check, which is what the event-throughput
bench pins below 2% overhead.

Hook frequency is the design constraint.  Everything here fires at
window-boundary, batch or fleet-event frequency — never per request:
admission decisions arrive as one block-level call per arrival block (or
per block segment for live-state policies, see
:meth:`Telemetry.on_admission_block`), and :meth:`Telemetry.on_drain`
fires at the scenario's drains only (window boundaries and the horizon).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from ..core.admission import AdmissionDecision
from ..errors import ParameterError
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulation imports us)
    from ..core.observation import WindowObservation
    from ..simulation.events import Event
    from ..simulation.scenario import Scenario

__all__ = ["Telemetry"]


class Telemetry:
    """Injectable metrics + tracing collection for one simulation run.

    Parameters
    ----------
    enabled:
        ``False`` turns every hook into an immediate return — instruments
        stay empty and the run's aggregates are bit-identical to a run with
        no telemetry at all.
    trace_sample_rate:
        Fraction of request lifecycles exported by
        :func:`repro.telemetry.chrome_trace_events` (the sampling decision
        itself is deterministic in the replication seed and request id, see
        :func:`repro.telemetry.sample_mask`).

    A telemetry object holds per-run state (gauge series, drain marks, the
    dispatched-row cursor); build a fresh one per scenario, exactly like
    server models.  Per-window rates, node shares and node backlogs are not
    kept here: every run records them in its
    :class:`~repro.simulation.scenario.WindowTable`.
    """

    def __init__(self, *, enabled: bool = True, trace_sample_rate: float = 1.0) -> None:
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ParameterError(
                f"trace_sample_rate must be within [0, 1], got {trace_sample_rate}"
            )
        self.enabled = bool(enabled)
        self.trace_sample_rate = float(trace_sample_rate)
        self.registry = MetricsRegistry()
        #: ``(sim_time, block_size)`` per arrival block.
        self.batch_marks: list[tuple[float, int]] = []
        #: ``(sim_time, completions)`` per bulk drain.
        self.drain_marks: list[tuple[float, int]] = []
        self._seen_completed = 0
        # Ledger rows already counted into the per-node dispatched gauges.
        self._node_cursor = 0
        self._dispatched: np.ndarray | int = 0

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Stamp gauge samples with this simulated-time source."""
        self.registry.set_clock(clock)

    # ------------------------------------------------------------------ #
    # Engine
    # ------------------------------------------------------------------ #
    def on_event(self, event: "Event") -> None:
        """Engine listener: count dispatched events per label family.

        Installed via :meth:`repro.simulation.SimulationEngine.set_listener`
        only when telemetry is enabled, so the default engine loop carries a
        single ``is not None`` branch.
        """
        if not self.enabled:
            return
        label = event.label or "anonymous"
        self.registry.counter(f"engine.events.{label.split('-', 1)[0]}").inc()

    # ------------------------------------------------------------------ #
    # Scenario lifecycle
    # ------------------------------------------------------------------ #
    def on_run_start(self, scenario: "Scenario") -> None:
        if not self.enabled:
            return
        self.registry.counter("scenario.runs").inc()
        self.registry.gauge("scenario.classes").set(len(scenario.classes))

    def on_batch(self, now: float, size: int) -> None:
        """An arrival block of ``size`` requests was pre-drawn."""
        if not self.enabled:
            return
        self.batch_marks.append((float(now), int(size)))
        self.registry.histogram("scenario.batch_size").observe(size)

    def on_drain(self, now: float, count: int) -> None:
        """A bulk drain logged ``count`` completions."""
        if not self.enabled:
            return
        self.drain_marks.append((float(now), int(count)))
        self.registry.histogram("scenario.drain_length").observe(count)

    def on_server_drain(self, class_index: int | None, count: int) -> None:
        """One member server's drain run (per-class task server or shared)."""
        if not self.enabled:
            return
        name = "shared.drain_length" if class_index is None else f"class{class_index}.drain_length"
        self.registry.histogram(name).observe(count)

    def on_admission_block(self, classes: np.ndarray, decisions: np.ndarray) -> None:
        """A block of admission decisions; ``classes`` are the *origin* classes.

        Accepted and degraded decisions both count as ``admission.accepted``
        — they enter the server — with degraded ones additionally tallied
        under ``admission.degraded``; shed ones count as
        ``admission.rejected``.  Per-origin-class counters break both down.
        """
        if not self.enabled:
            return
        reg = self.registry
        shed = decisions == int(AdmissionDecision.SHED)
        num_shed = int(np.count_nonzero(shed))
        if num_shed:
            reg.counter("admission.rejected").inc(num_shed)
            for index, count in enumerate(np.bincount(classes[shed])):
                if count:
                    reg.counter(f"admission.class{index}.rejected").inc(int(count))
        accepted = decisions.shape[0] - num_shed
        if accepted:
            reg.counter("admission.accepted").inc(accepted)
        degraded = decisions == int(AdmissionDecision.DEGRADE)
        num_degraded = int(np.count_nonzero(degraded))
        if num_degraded:
            reg.counter("admission.degraded").inc(num_degraded)
            for index, count in enumerate(np.bincount(classes[degraded])):
                if count:
                    reg.counter(f"admission.class{index}.degraded").inc(int(count))

    def on_window(self, scenario: "Scenario", obs: "WindowObservation") -> None:
        """One estimation-window boundary: the run's periodic observation point."""
        if not self.enabled:
            return
        reg = self.registry
        reg.counter("scenario.windows").inc()
        reg.counter("scenario.arrivals").inc(int(sum(obs.arrivals)))
        completed = scenario.ledger.num_completed
        reg.counter("scenario.completions").inc(completed - self._seen_completed)
        self._seen_completed = completed
        reg.histogram("scenario.window_arrivals").observe(sum(obs.arrivals))
        reg.histogram("scenario.window_work").observe(sum(obs.work))
        for index, depth in enumerate(obs.backlogs):
            reg.gauge(f"class{index}.queue_depth").set(depth)
        reg.gauge("server.backlog_total").set(sum(obs.backlogs))
        for index, rate in enumerate(obs.rates):
            reg.gauge(f"class{index}.rate").set(rate)
        capacity = obs.live_capacity
        if capacity > 0.0:
            reg.gauge("server.utilisation").set(sum(obs.rates) / capacity)
        self._observe_cluster(scenario.server, scenario.ledger)

    def _observe_cluster(self, server, ledger) -> None:
        """Per-node gauges for clustered servers."""
        live = getattr(server, "live_nodes", None)
        if live is None:
            return
        reg = self.registry
        reg.gauge("cluster.live_nodes").set(len(live))
        num_nodes = server.num_nodes
        # At a boundary every appended row is dispatched or shed (node -1),
        # so counting only the rows since the last boundary keeps the
        # running totals exact.
        end = len(ledger)
        nodes = ledger.node[self._node_cursor : end]
        self._node_cursor = end
        self._dispatched += np.bincount(nodes[nodes >= 0], minlength=num_nodes)
        shares = server.shares
        for node, pending in enumerate(server.pending_table):
            reg.gauge(f"cluster.node{node}.backlog").set(sum(pending))
            reg.gauge(f"cluster.node{node}.dispatched").set(int(self._dispatched[node]))
            if shares is not None:
                assigned = sum(shares[node])
                reg.gauge(f"cluster.node{node}.utilisation").set(
                    assigned / server.node_capacity(node)
                )

    # ------------------------------------------------------------------ #
    # Cluster fleet
    # ------------------------------------------------------------------ #
    def on_fleet_change(self, cluster) -> None:
        """A fleet event (join / leave / set_capacity) was applied."""
        if not self.enabled:
            return
        self.registry.counter("fleet.events").inc()
        self.registry.gauge("cluster.live_nodes").set(len(cluster.live_nodes))

    def on_autoscale(self, events, cluster) -> None:
        """An autoscaler decision was applied: per-direction scale counters.

        ``events`` are the boundary's emitted
        :class:`~repro.cluster.FleetEvent` instances; the generic
        ``fleet.events`` counter already ticked once per applied event (via
        :meth:`on_fleet_change`), so this hook only adds the
        direction-split decision counters the autoscale experiment reports.
        """
        if not self.enabled:
            return
        reg = self.registry
        for event in events:
            if event.action == "join":
                reg.counter("autoscale.scale_out").inc()
            elif event.action == "leave":
                reg.counter("autoscale.scale_in").inc()
            else:
                reg.counter("autoscale.set_capacity").inc()
        reg.gauge("cluster.live_nodes").set(len(cluster.live_nodes))

    def on_run_end(self, scenario: "Scenario") -> None:
        if not self.enabled:
            return
        engine = scenario.engine
        self.registry.counter("engine.events_processed").inc(engine.events_processed)
        self.registry.gauge("scenario.simulated_time").set(engine.now)
        # Arrivals and completions that land after the last window boundary
        # were never seen by on_window — reconcile against the ledger so both
        # counters match the run's true totals.  Shed rows never counted as
        # window arrivals (the window stats filter them), so they are
        # excluded here too.
        ledger = scenario.ledger
        admitted_rows = len(ledger) - int(
            np.count_nonzero(ledger.disposition == int(AdmissionDecision.SHED))
        )
        arrivals = self.registry.counter("scenario.arrivals")
        arrivals.inc(admitted_rows - arrivals.value)
        completed = scenario.ledger.num_completed
        self.registry.counter("scenario.completions").inc(completed - self._seen_completed)
        self._seen_completed = completed
        timeline = getattr(scenario.server, "fleet_timeline", None)
        if timeline:
            # Lazy import: repro.cluster imports repro.telemetry at module
            # load, so the cost gauge resolves its helper at run end only.
            from ..cluster.autoscale import node_hours

            self.registry.gauge("cluster.node_hours").set(
                node_hours(timeline, horizon=float(engine.now))
            )
