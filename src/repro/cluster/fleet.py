"""Fleet schedules: node join/leave/degradation while a run is in flight.

Real fleets are not static: nodes are drained for maintenance, crash,
degrade (thermal throttling, noisy neighbours) and come back.  A
:class:`FleetSchedule` is a deterministic timeline of such events that a
:class:`~repro.cluster.model.ClusterServerModel` applies at the scheduled
simulation times:

``leave``
    The node stops receiving dispatches and rate shares immediately, but
    *finishes its queued work* at its last-applied rates (drain-before-
    removal); once its pending queue empties it is fully down.
``join``
    A down (or still-draining) node rejoins the live set; the next rate
    partition includes it again.  Nodes listed in
    :attr:`FleetSchedule.initial_down` start the run down and only serve
    after their ``join`` event.
``set_capacity``
    The node's advertised capacity changes in place — degradation when it
    shrinks, recovery when it grows, ``None`` restoring the unconstrained
    idealisation.  Capacity-aware dispatch policies and partitioners re-read
    the vector at the event time.

At every event the cluster re-normalises: the rate partitioner re-splits the
controller's current per-class rates over the *live* capacity vector, and
dispatch policies refresh any cached per-node state.  All of it is
deterministic — event times are data, ties on the engine calendar break by
insertion order — so churn runs are bit-reproducible serially and under
``workers=N``, and an **empty schedule is bit-identical** to a cluster built
without one.

Compact CLI specs are parsed by :func:`parse_fleet_events`::

    leave:0@200 join:0@400            # kill node 0 at t=200, restore at 400
    kill:1@50,restore:1@80            # aliases; comma or space separated
    set_capacity:2=0.25@100           # degrade node 2 to capacity 0.25
    down:3 join:3@500                 # node 3 starts down, joins at t=500

Times are in whatever units the scenario's durations use; scale a schedule
expressed in the paper's abstract time units with
:meth:`FleetSchedule.scaled_to_time_units`, exactly like
:meth:`~repro.simulation.MeasurementConfig.scaled_to_time_units`.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace

from ..errors import SimulationError
from ..validation import require_capacity

__all__ = [
    "NODE_LIVE",
    "NODE_DRAINING",
    "NODE_DOWN",
    "FleetEvent",
    "FleetSchedule",
    "parse_fleet_events",
    "live_nodes_of",
    "node_state_spans",
]

#: Node states recorded in a cluster's fleet timeline.  A *live* node
#: receives dispatches and rate shares; a *draining* node finishes its queued
#: work at its last-applied rates but accepts nothing new; a *down* node
#: holds no work and serves nothing.
NODE_LIVE = "live"
NODE_DRAINING = "draining"
NODE_DOWN = "down"

#: Actions a :class:`FleetEvent` may carry.
ACTIONS = ("join", "leave", "set_capacity")

#: CLI spelling aliases accepted by :func:`parse_fleet_events`.
_ACTION_ALIASES = {
    "kill": "leave",
    "restore": "join",
    "degrade": "set_capacity",
    "capacity": "set_capacity",
}

_TOKEN = re.compile(
    r"^(?P<action>[a-z_]+):(?P<node>\d+)"
    r"(?:=(?P<value>[^@]+))?(?:@(?P<time>[^@]+))?$"
)


@dataclass(frozen=True)
class FleetEvent:
    """One scheduled change to the fleet: ``join``, ``leave`` or ``set_capacity``.

    ``time`` is finite and ``>= 0``.  ``capacity`` is only meaningful for
    ``set_capacity``: a finite, strictly positive value, or ``None`` to
    restore the unconstrained idealisation.
    """

    time: float
    action: str
    node: int
    capacity: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "node", int(self.node))
        if self.action not in ACTIONS:
            raise SimulationError(
                f"unknown fleet event action {self.action!r}; available: {ACTIONS}"
            )
        if not (math.isfinite(self.time) and self.time >= 0.0):
            # An event at ``inf`` could never fire: reject it like NaN.
            raise SimulationError(f"fleet event time must be finite and >= 0, got {self.time}")
        if self.node < 0:
            raise SimulationError(f"fleet event node must be >= 0, got {self.node}")
        if self.action == "set_capacity":
            if self.capacity is not None:
                capacity = require_capacity(self.capacity, "set_capacity capacity")
                object.__setattr__(self, "capacity", capacity)
        elif self.capacity is not None:
            raise SimulationError(f"{self.action!r} events do not take a capacity")

    def scaled(self, time_unit: float) -> "FleetEvent":
        """The same event with its time multiplied by ``time_unit``."""
        return replace(self, time=self.time * time_unit)

    def spec(self) -> str:
        """The compact token form accepted by :func:`parse_fleet_events`."""
        if self.action == "set_capacity":
            value = "none" if self.capacity is None else f"{self.capacity:g}"
            return f"set_capacity:{self.node}={value}@{self.time:g}"
        return f"{self.action}:{self.node}@{self.time:g}"


@dataclass(frozen=True)
class FleetSchedule:
    """A timeline of fleet events plus the nodes that start the run down.

    Events are kept sorted by time; same-time events on *different* nodes
    apply in the order declared, while two events targeting the same node at
    the same instant are rejected as conflicting (their outcome would depend
    on insertion order).  The schedule is plain data (picklable, hashable)
    so it rides experiment builds into replication workers unchanged.
    """

    events: tuple[FleetEvent, ...] = ()
    initial_down: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FleetEvent):
                raise SimulationError(
                    f"fleet schedule events must be FleetEvent instances, got "
                    f"{type(event).__name__}"
                )
        events = tuple(sorted(events, key=lambda event: event.time))
        # Two events for the same node at the same instant have no defined
        # outcome (``leave:0@200 join:0@200`` would silently resolve by
        # insertion order); reject the pair outright.  Same-time events on
        # *different* nodes stay legal — correlated failures are a feature.
        seen: dict[tuple[float, int], FleetEvent] = {}
        for event in events:
            key = (event.time, event.node)
            clash = seen.get(key)
            if clash is not None:
                raise SimulationError(
                    f"conflicting fleet events for node {event.node} at "
                    f"t={event.time:g}: {clash.spec()!r} and {event.spec()!r}; "
                    f"same-instant events must target different nodes"
                )
            seen[key] = event
        object.__setattr__(self, "events", events)
        down = tuple(int(node) for node in self.initial_down)
        if len(set(down)) != len(down):
            raise SimulationError(f"initial_down lists a node twice: {down}")
        if any(node < 0 for node in down):
            raise SimulationError(f"initial_down nodes must be >= 0, got {down}")
        object.__setattr__(self, "initial_down", down)

    def __bool__(self) -> bool:
        return bool(self.events or self.initial_down)

    def validate_for(self, num_nodes: int) -> None:
        """Reject node indices outside a ``num_nodes``-node fleet."""
        for node in self.initial_down:
            if node >= num_nodes:
                raise SimulationError(f"initial_down node {node} out of range [0, {num_nodes})")
        for event in self.events:
            if event.node >= num_nodes:
                raise SimulationError(
                    f"fleet event {event.spec()!r} targets node {event.node}, "
                    f"cluster has {num_nodes}"
                )

    def times_between(self, start: float, end: float) -> tuple[float, ...]:
        """Distinct event instants strictly inside ``(start, end)``, ascending.

        The cluster cuts pre-drawn arrival blocks at these instants
        so arrivals after an event are dispatched under the post-event fleet
        (an arrival landing *exactly* on an event time belongs to the later
        segment — on the engine calendar the bind-time fleet event outranks
        the later-scheduled block submission at the same instant).
        """
        return tuple(
            sorted({event.time for event in self.events if start < event.time < end})
        )

    def scaled_to_time_units(self, time_unit: float) -> "FleetSchedule":
        """Event times multiplied by ``time_unit`` (abstract units -> raw time)."""
        if not time_unit > 0.0:
            raise SimulationError(f"time_unit must be > 0, got {time_unit}")
        return FleetSchedule(
            events=tuple(event.scaled(time_unit) for event in self.events),
            initial_down=self.initial_down,
        )

    def spec(self) -> str:
        """A compact round-trippable label (``down:2 leave:0@200 ...``)."""
        tokens = [f"down:{node}" for node in self.initial_down]
        tokens.extend(event.spec() for event in self.events)
        return " ".join(tokens) if tokens else "static"


def _parse_capacity(raw: str, token: str) -> float | None:
    value = raw.strip().lower()
    if value in ("none", "unconstrained"):
        return None
    try:
        return float(value)
    except ValueError:
        raise SimulationError(f"bad capacity {raw!r} in fleet event {token!r}") from None


def parse_fleet_events(spec: "str | Sequence[str]") -> FleetSchedule:
    """Parse compact event tokens into a :class:`FleetSchedule`.

    ``spec`` is a string (comma/whitespace separated) or a sequence of
    tokens.  Grammar per token: ``action:node@time`` with actions ``join`` /
    ``leave`` (aliases ``restore`` / ``kill``), ``set_capacity:node=value@time``
    (aliases ``degrade`` / ``capacity``; value ``none`` restores the
    unconstrained idealisation), and ``down:node`` marking a node that starts
    the run down.
    """
    if isinstance(spec, str):
        tokens = [t for t in re.split(r"[,\s]+", spec.strip()) if t]
    else:
        tokens = []
        for entry in spec:
            tokens.extend(t for t in re.split(r"[,\s]+", str(entry).strip()) if t)
    events: list[FleetEvent] = []
    initial_down: list[int] = []
    for token in tokens:
        match = _TOKEN.match(token)
        if match is None:
            raise SimulationError(
                f"bad fleet event token {token!r}; expected "
                f"'action:node@time', 'set_capacity:node=value@time' or 'down:node'"
            )
        action = match["action"]
        action = _ACTION_ALIASES.get(action, action)
        node = int(match["node"])
        if action == "down":
            if match["time"] is not None or match["value"] is not None:
                raise SimulationError(
                    f"'down' marks a node that starts the run down and takes "
                    f"no time or value: {token!r}"
                )
            initial_down.append(node)
            continue
        if action not in ACTIONS:
            raise SimulationError(
                f"unknown fleet event action {match['action']!r} in {token!r}; "
                f"available: {ACTIONS} (aliases: {sorted(_ACTION_ALIASES)})"
            )
        if match["time"] is None:
            raise SimulationError(f"fleet event {token!r} is missing its '@time'")
        try:
            time = float(match["time"])
        except ValueError:
            raise SimulationError(f"bad time {match['time']!r} in fleet event {token!r}") from None
        capacity = None
        if action == "set_capacity":
            if match["value"] is None:
                raise SimulationError(f"set_capacity needs '=value' (or '=none'): {token!r}")
            capacity = _parse_capacity(match["value"], token)
        elif match["value"] is not None:
            raise SimulationError(f"{action!r} events do not take '=value': {token!r}")
        events.append(FleetEvent(time=time, action=action, node=node, capacity=capacity))
    return FleetSchedule(events=tuple(events), initial_down=tuple(initial_down))


def node_state_spans(
    timeline, *, horizon: float | None = None
) -> list[tuple[int, str, float, float]]:
    """Flatten a fleet timeline into per-node ``(node, state, start, end)`` spans.

    ``timeline`` is a cluster's piecewise-constant
    :attr:`~repro.cluster.model.ClusterServerModel.fleet_timeline`.  Each
    node's history becomes contiguous spans (consecutive entries with an
    unchanged state merge); the final span of every node ends at ``horizon``
    (or the last timeline entry's time without one).  Spans are returned
    sorted by node then start time — the shape the trace exporter turns into
    per-node state lanes.
    """
    entries = sorted(timeline, key=lambda entry: entry[0])
    if not entries:
        return []
    num_nodes = len(entries[0][1])
    spans: list[tuple[int, str, float, float]] = []
    starts = [float(entries[0][0])] * num_nodes
    states = list(entries[0][1])
    for time, snapshot, _capacities in entries[1:]:
        if len(snapshot) != num_nodes:
            raise SimulationError("fleet timeline entries disagree on the node count")
        for node in range(num_nodes):
            if snapshot[node] != states[node]:
                spans.append((node, states[node], starts[node], float(time)))
                states[node] = snapshot[node]
                starts[node] = float(time)
    end = float(horizon) if horizon is not None else float(entries[-1][0])
    for node in range(num_nodes):
        spans.append((node, states[node], starts[node], max(end, starts[node])))
    spans.sort(key=lambda span: (span[0], span[2]))
    return spans


def live_nodes_of(cluster) -> tuple[int, ...]:
    """The cluster view's live node indices, in ascending order.

    An empty live set raises :class:`~repro.errors.ClusterDrainedError` —
    no policy or partitioner can make a decision over zero nodes.
    """
    live = tuple(cluster.live_nodes)
    if not live:
        from ..errors import ClusterDrainedError

        raise ClusterDrainedError("every cluster node is draining or down; no live node exists")
    return live
