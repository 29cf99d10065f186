"""Endogenous autoscaling: policies that close the monitor → fleet loop.

PR 5's :class:`~repro.cluster.fleet.FleetSchedule` made the fleet dynamic
but *exogenous* — a pre-scripted timeline.  This module makes it
*endogenous*: at every estimation-window boundary an
:class:`AutoscalerPolicy` observes the boundary's one
:class:`~repro.core.WindowObservation` — the same object telemetry and
admission read (per-class arrivals and offered work, the fleet's live
capacity and outstanding backlog) — and emits ``join`` / ``leave`` fleet
events *at engine time*, so :class:`~repro.cluster.ClusterServerModel`
grows and shrinks itself under load.

Determinism is the load-bearing property.  Scale decisions are a pure
function of boundary state, events are applied synchronously inside the
scenario's window-boundary callback — *before* the next window's arrival
block is drawn — and node selection is by index (join the lowest-index
spare, retire the highest-index live node).  The emitted fleet-event
sequence is therefore bit-identical serial vs ``workers=N`` and against a
one-event-per-request reference simulation; the hypothesis property tests
in ``tests/cluster/test_autoscaler.py`` pin exactly that.

Shared machinery, per :class:`AutoscalerPolicy`:

* **per-direction cooldowns** — a scale-out (scale-in) decision is
  suppressed until ``scale_out_cooldown`` (``scale_in_cooldown``) time
  units after the previous one, so transients do not thrash the fleet;
* **join warm-up lag** — ``warmup_lag`` models instance spin-up: a
  scale-out decision *reserves* a node but its ``join`` event is only
  emitted ``ceil(warmup_lag / window)`` boundaries later (pending joins
  count toward the fleet size so the policy does not double-order);
* **min/max fleet bounds** — the desired size is clamped to
  ``[min_nodes, max_nodes]`` (and to the cluster's physical node count).

The shipped policy family (also in the ``AUTOSCALERS`` registry, mirroring
``ADMISSION_POLICIES``):

* :class:`TargetTracking` — size the fleet so demand (offered rate plus a
  backlog pay-down term) sits at a target utilisation, with a scale-in
  hysteresis band;
* :class:`StepScaling` — banded steps on the window's load signal;
* :class:`PredictiveEwma` — Holt's linear EWMA (level + trend, the relaxed
  double-smoothing of SNIPPETS.md's ``EwmaRelaxedPolicy`` lineage)
  forecasting demand ``lead`` windows ahead, then target-sizing for the
  forecast.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Callable

from ..core.observation import WindowObservation
from ..errors import ParameterError
from ..validation import require_count, require_in_range, require_non_negative
from .fleet import NODE_DRAINING, NODE_LIVE, FleetEvent, node_state_spans

__all__ = [
    "AutoscalerPolicy",
    "TargetTracking",
    "StepScaling",
    "PredictiveEwma",
    "AUTOSCALERS",
    "build_autoscaler",
    "parse_autoscaler_args",
    "node_hours",
]


class AutoscalerPolicy:
    """Base scaler: cooldowns, warm-up lag and bounds around a sizing rule.

    Subclasses implement :meth:`desired_fleet_size` — a pure function of
    one :class:`~repro.core.WindowObservation`.  Everything else (clamping
    the answer to bounds, suppressing decisions inside a cooldown, holding
    warm-up joins pending, picking *which* nodes join or leave) lives here,
    so every policy inherits the same deterministic event grammar.

    Parameters
    ----------
    min_nodes / max_nodes:
        Fleet-size bounds; ``max_nodes=None`` means the cluster's node
        count.  Both are additionally clamped to the physical fleet.
    scale_out_cooldown / scale_in_cooldown:
        Minimum time between consecutive decisions in the same direction
        (time units; a decision landing exactly on the cooldown edge
        fires).  Opposite directions are independent, so a flash crowd can
        scale out immediately after a scale-in.
    warmup_lag:
        Join spin-up time, rounded *up* to whole estimation windows: a
        reserved node's ``join`` is emitted ``ceil(warmup_lag / window)``
        boundaries after the decision (0 joins at the decision boundary).
        Quantising to boundaries is what keeps warm-up compatible with the
        arrival blocks — events only ever fire where the scenario already
        synchronises its servers.
    """

    def __init__(
        self,
        *,
        min_nodes: int = 1,
        max_nodes: int | None = None,
        scale_out_cooldown: float = 0.0,
        scale_in_cooldown: float = 0.0,
        warmup_lag: float = 0.0,
    ) -> None:
        self.min_nodes = require_count(min_nodes, "min_nodes", 1)
        if max_nodes is not None:
            max_nodes = require_count(max_nodes, "max_nodes", 1)
            if max_nodes < self.min_nodes:
                raise ParameterError(
                    f"max_nodes ({max_nodes}) must be >= min_nodes ({self.min_nodes})"
                )
        self.max_nodes = max_nodes
        self.scale_out_cooldown = require_non_negative(scale_out_cooldown, "scale_out_cooldown")
        self.scale_in_cooldown = require_non_negative(scale_in_cooldown, "scale_in_cooldown")
        self.warmup_lag = require_non_negative(warmup_lag, "warmup_lag")
        self.reset()

    # ------------------------------------------------------------------ #
    # Subclass surface
    # ------------------------------------------------------------------ #
    def desired_fleet_size(self, obs: WindowObservation) -> int:
        """The fleet size this policy wants, before bounds and cooldowns."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear decision state (fresh instances per replication preferred)."""
        self._last_out = -math.inf
        self._last_in = -math.inf
        #: Reserved joins still warming up: ``(boundaries_remaining, node)``.
        self._pending_joins: list[tuple[int, int]] = []
        #: ``(time, desired, effective)`` per boundary — diagnostics only.
        self.decision_log: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------ #
    # The boundary hook the scenario drives
    # ------------------------------------------------------------------ #
    def _warmup_boundaries(self, window: float) -> int:
        """Warm-up lag in whole windows, rounded up (jitter-tolerant)."""
        if self.warmup_lag <= 0.0:
            return 0
        return max(int(math.ceil(self.warmup_lag / window - 1e-9)), 0)

    def observe_boundary(self, obs: WindowObservation) -> tuple[FleetEvent, ...]:
        """One boundary step: release due joins, decide, emit fleet events.

        Returns the events for the *caller* to apply (via
        ``server.apply_fleet_event``), in application order: warm-up joins
        that came due, then this boundary's immediate joins, then leaves.
        The node count is ``len(obs.capacities)``.
        """
        time = obs.time
        num_nodes = len(obs.capacities)
        events: list[FleetEvent] = []
        if self._pending_joins:
            still_pending: list[tuple[int, int]] = []
            for remaining, node in self._pending_joins:
                remaining -= 1
                if remaining <= 0:
                    events.append(FleetEvent(time=time, action="join", node=node))
                else:
                    still_pending.append((remaining, node))
            self._pending_joins = still_pending
        lo = max(self.min_nodes, 1)
        hi = num_nodes if self.max_nodes is None else min(self.max_nodes, num_nodes)
        desired = min(max(int(self.desired_fleet_size(obs)), lo), hi)
        # The effective size counts live nodes, joins released above, and
        # joins still warming up — ordered capacity must not be re-ordered.
        live = set(obs.live_nodes)
        live.update(event.node for event in events)
        pending = {node for _, node in self._pending_joins}
        effective = len(live) + len(pending)
        self.decision_log.append((time, desired, effective))
        if desired > effective:
            if time - self._last_out >= self.scale_out_cooldown:
                spares = [
                    node
                    for node in range(num_nodes)
                    if node not in live and node not in pending
                ]
                boundaries = self._warmup_boundaries(obs.window)
                ordered = spares[: desired - effective]
                for node in ordered:
                    if boundaries == 0:
                        events.append(FleetEvent(time=time, action="join", node=node))
                    else:
                        self._pending_joins.append((boundaries, node))
                if ordered:
                    self._last_out = time
        elif desired < len(live):
            if time - self._last_in >= self.scale_in_cooldown:
                # Retire the highest-index live nodes; the model drains each
                # victim's queue before taking it down.  A node whose warm-up
                # join released *this* boundary is retired by cancelling the
                # join instead — never two same-instant events on one node.
                victims = sorted(live, reverse=True)[: len(live) - desired]
                for node in victims:
                    released = [
                        e for e in events if e.action == "join" and e.node == node
                    ]
                    if released:
                        events.remove(released[0])
                    else:
                        events.append(FleetEvent(time=time, action="leave", node=node))
                self._last_in = time
        return tuple(events)


class TargetTracking(AutoscalerPolicy):
    """Track a target utilisation: the smallest fleet that absorbs demand.

    Demand is the window's offered rate plus a backlog pay-down term
    (clear the outstanding work over ``drain_windows`` windows).  The
    desired size is the shortest capacity prefix (nodes in index order)
    with ``capacity >= demand / target``.  Scale-in only happens when even
    the hysteresis-inflated demand (``demand / (target * (1 -
    hysteresis))``) no longer needs the current fleet — the classic
    target-tracking dead band against oscillation.
    """

    def __init__(
        self,
        *,
        target: float = 0.85,
        hysteresis: float = 0.1,
        drain_windows: int = 2,
        **bounds,
    ) -> None:
        self.target = require_in_range(target, "target", 0.0, 1.5, inclusive_low=False)
        self.hysteresis = require_in_range(hysteresis, "hysteresis", 0.0, 1.0, inclusive_high=False)
        self.drain_windows = require_count(drain_windows, "drain_windows", 1)
        super().__init__(**bounds)

    @staticmethod
    def _prefix_size(capacities: tuple[float, ...], required: float) -> int:
        """Smallest k with ``sum(capacities[:k]) >= required`` (≤ the fleet)."""
        if required <= 0.0:
            return 0
        total = 0.0
        for k, capacity in enumerate(capacities, start=1):
            total += capacity
            if total >= required - 1e-12:
                return k
        return len(capacities)

    def desired_fleet_size(self, obs: WindowObservation) -> int:
        demand = obs.offered_rate + obs.backlog_work / (self.drain_windows * obs.window)
        need = self._prefix_size(obs.capacities, demand / self.target)
        current = len(obs.live_nodes)
        if need < current:
            conservative = self._prefix_size(
                obs.capacities, demand / (self.target * (1.0 - self.hysteresis))
            )
            need = min(conservative, current)
        return need


class StepScaling(AutoscalerPolicy):
    """Banded steps on the window's load signal.

    The signal is the window's total demand (offered work plus backlog)
    over one window of live capacity.  Each ``(threshold, step)`` band
    adds ``step`` nodes once the signal reaches ``threshold`` (the largest
    matching step wins); a signal below ``in_threshold`` retires one node.
    """

    def __init__(
        self,
        *,
        bands: Sequence[tuple[float, int]] = ((0.9, 1), (1.3, 2)),
        in_threshold: float = 0.6,
        **bounds,
    ) -> None:
        parsed = []
        for i, band in enumerate(bands):
            if len(band) != 2:
                raise ParameterError(f"bands[{i}] must be a (threshold, step) pair, got {band!r}")
            threshold, step = band
            parsed.append(
                (
                    require_non_negative(float(threshold), f"bands[{i}].threshold"),
                    require_count(step, f"bands[{i}].step", 1),
                )
            )
        if not parsed:
            raise ParameterError("bands must be non-empty")
        self.bands = tuple(parsed)
        self.in_threshold = require_non_negative(in_threshold, "in_threshold")
        if any(self.in_threshold >= threshold for threshold, _ in self.bands):
            raise ParameterError(
                f"in_threshold ({self.in_threshold}) must sit below every "
                f"scale-out band threshold"
            )
        super().__init__(**bounds)

    def desired_fleet_size(self, obs: WindowObservation) -> int:
        deliverable = obs.live_capacity * obs.window
        if deliverable > 0.0:
            signal = (sum(obs.work) + obs.backlog_work) / deliverable
        else:
            signal = math.inf
        current = len(obs.live_nodes)
        step = 0
        for threshold, delta in self.bands:
            if signal >= threshold:
                step = max(step, delta)
        if step == 0 and signal < self.in_threshold:
            step = -1
        return current + step


class PredictiveEwma(AutoscalerPolicy):
    """Holt's linear EWMA forecast, target-sized ``lead`` windows ahead.

    Double exponential smoothing over the demand series (offered rate plus
    backlog pay-down, as in :class:`TargetTracking`)::

        level ← alpha * d + (1 - alpha) * (level + trend)
        trend ← beta * (level - level_prev) + (1 - beta) * trend

    and the fleet is sized for ``level + trend * lead`` — scaling *before*
    a ramp arrives instead of after it hurts, the predictive relaxation of
    the EWMA policy family.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.5,
        beta: float = 0.3,
        lead: float = 1.0,
        target: float = 0.85,
        drain_windows: int = 2,
        **bounds,
    ) -> None:
        self.alpha = require_in_range(alpha, "alpha", 0.0, 1.0, inclusive_low=False)
        self.beta = require_in_range(beta, "beta", 0.0, 1.0, inclusive_low=False)
        self.lead = require_non_negative(lead, "lead")
        self.target = require_in_range(target, "target", 0.0, 1.5, inclusive_low=False)
        self.drain_windows = require_count(drain_windows, "drain_windows", 1)
        super().__init__(**bounds)

    def reset(self) -> None:
        super().reset()
        self._level: float | None = None
        self._trend = 0.0

    def desired_fleet_size(self, obs: WindowObservation) -> int:
        demand = obs.offered_rate + obs.backlog_work / (self.drain_windows * obs.window)
        if self._level is None:
            self._level = demand
        else:
            previous = self._level
            self._level = self.alpha * demand + (1.0 - self.alpha) * (previous + self._trend)
            self._trend = self.beta * (self._level - previous) + (1.0 - self.beta) * self._trend
        forecast = max(self._level + self._trend * self.lead, 0.0)
        return TargetTracking._prefix_size(obs.capacities, forecast / self.target)


# ---------------------------------------------------------------------- #
# Cost accounting
# ---------------------------------------------------------------------- #
def node_hours(
    timeline,
    *,
    horizon: float,
    states: tuple[str, ...] = (NODE_LIVE, NODE_DRAINING),
) -> float:
    """Integrated node-time spent in ``states`` over ``[start, horizon]``.

    ``timeline`` is a run's fleet timeline
    (:attr:`~repro.cluster.ClusterServerModel.fleet_timeline` or
    ``SimulationResult.fleet_timeline``).  Draining nodes count by default:
    a machine flushing its queue is still paid for.  This is the cost axis
    of the SLO-vs-node-hours frontier bench.
    """
    total = 0.0
    for _node, state, start, end in node_state_spans(timeline, horizon=horizon):
        if state in states:
            total += end - start
    return total


# ---------------------------------------------------------------------- #
# Registry + factory (mirrors ADMISSION_POLICIES / build_admission)
# ---------------------------------------------------------------------- #
AUTOSCALERS: dict[str, Callable[..., AutoscalerPolicy]] = {
    "target_tracking": TargetTracking,
    "step_scaling": StepScaling,
    "predictive_ewma": PredictiveEwma,
}

def parse_autoscaler_args(tokens: Sequence[str]) -> dict:
    """Parse ``key=value`` autoscaler-argument tokens (CLI surface).

    Values are floats; comma-separated values become float tuples, and
    ``bands`` accepts ``threshold:step`` pairs (``bands=0.9:1,1.3:2``).
    """
    args: dict = {}
    for token in tokens:
        key, sep, value = str(token).partition("=")
        if not sep or not key or not value:
            raise ParameterError(f"bad autoscaler argument {token!r}; expected key=value")
        parts = value.split(",")
        try:
            if key == "bands":
                parsed_bands = []
                for part in parts:
                    threshold, colon, step = part.partition(":")
                    if not colon:
                        raise ValueError(part)
                    parsed_bands.append((float(threshold), float(step)))
                args[key] = tuple(parsed_bands)
                continue
            parsed = tuple(float(part) for part in parts)
        except ValueError:
            raise ParameterError(
                f"bad autoscaler argument {token!r}; values must be numeric"
            ) from None
        args[key] = parsed if len(parts) > 1 else parsed[0]
    return args


def build_autoscaler(name: str, args: Sequence[str] = (), **overrides) -> AutoscalerPolicy:
    """Build a fresh autoscaler by registry name.

    ``args`` are CLI-style ``key=value`` tokens (see
    :func:`parse_autoscaler_args`); ``overrides`` are passed through as
    constructor keywords and win over parsed tokens.  Builds carry the
    *name + tokens* across process boundaries (picklable experiment
    builds) and construct the policy fresh in each worker.
    """
    try:
        factory = AUTOSCALERS[name]
    except KeyError:
        raise ParameterError(
            f"unknown autoscaler {name!r}; available: {sorted(AUTOSCALERS)}"
        ) from None
    kwargs = parse_autoscaler_args(args)
    kwargs.update(overrides)
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ParameterError(
            f"autoscaler {name!r} rejected arguments {sorted(kwargs)}: {exc}"
        ) from None
