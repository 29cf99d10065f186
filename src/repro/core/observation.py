"""One estimation-window boundary, captured once for every boundary consumer.

The scenario hands the same :class:`WindowObservation` to telemetry, the
autoscaler and admission (see :class:`repro.simulation.Scenario`).  It is a
``NamedTuple``, not a frozen dataclass, because the live-state admission
walk copies it once per arrival and ``_replace`` is the cheaper copy.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["WindowObservation"]


class WindowObservation(NamedTuple):
    """The window that just ended (``arrivals``, ``work`` and ``slowdowns``
    of admitted traffic; NaN slowdown for a class that completed nothing),
    the controller's new allocation, per-class backlogs and the fleet."""

    time: float
    window: float
    arrivals: tuple[int, ...]
    work: tuple[float, ...]
    slowdowns: tuple[float, ...]
    rates: tuple[float, ...]
    estimated_loads: tuple[float, ...]
    backlogs: tuple[int, ...]
    capacities: tuple[float, ...]
    live_nodes: tuple[int, ...]
    backlog_work: float

    @classmethod
    def capture(
        cls, server, *, time, window, arrivals, work, slowdowns, rates, estimated_loads
    ) -> "WindowObservation":
        """The only fleet read: a cluster gives per-node capacities, its live
        set and the work outstanding on every node (draining ones too); any
        other server is one live node of ``capacity`` (1.0 when undeclared)
        with no outstanding work."""
        live = getattr(server, "live_nodes", None)
        if live is not None:
            nodes = range(server.num_nodes)
            capacities = tuple(server.node_capacity(node) for node in nodes)
            live_nodes = tuple(live)
            backlog_work = float(sum(server.work_left(node) for node in nodes))
        else:
            capacity = getattr(server, "capacity", None)
            capacities = (1.0 if capacity is None else float(capacity),)
            live_nodes = (0,)
            backlog_work = 0.0
        return cls(
            time=float(time),
            window=float(window),
            arrivals=tuple(arrivals),
            work=tuple(work),
            slowdowns=tuple(slowdowns),
            rates=tuple(rates),
            estimated_loads=tuple(estimated_loads),
            backlogs=server.backlogs(),
            capacities=capacities,
            live_nodes=live_nodes,
            backlog_work=backlog_work,
        )

    @property
    def total_estimated_load(self) -> float:
        return sum(self.estimated_loads)

    @property
    def live_capacity(self) -> float:
        """Total capacity of the currently live nodes."""
        return float(sum(self.capacities[node] for node in self.live_nodes))

    @property
    def offered_rate(self) -> float:
        """Admitted work per time unit over the window that just ended."""
        return sum(self.work) / self.window

    @property
    def utilisation(self) -> float:
        """Offered rate over live capacity (``inf`` during a full outage)."""
        capacity = self.live_capacity
        return self.offered_rate / capacity if capacity > 0.0 else float("inf")

    @property
    def backlog_windows(self) -> float:
        """Outstanding work in units of one window of live capacity."""
        deliverable = self.live_capacity * self.window
        return self.backlog_work / deliverable if deliverable > 0.0 else float("inf")
