"""Wall-clock spans around each layer's public entry points, kept in memory.

:func:`instrument` wraps the methods :func:`entry_points` lists on the
classes that define them, before any build runs, so the bound methods a
cluster gathers at bind time are wrapped too.  Each call records one
:class:`Span`: layer, name, start, end, parent, replication index, the time
its child spans cover, and an item count taken from its arguments or
result (rows drained, events emitted, ...).  A layer's self time is its
span's duration minus that child time.

Per-request entry points (``submit_one``, ``select_node``, the
next-completion lookups) are deliberately not wrapped: a span per request
would distort the loop it measures.  Their cost lands in the self time of
the ``cluster`` layer that calls them.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    layer: str
    name: str
    start: int
    end: int
    parent: int | None
    #: The parent span has the same layer (a ``super()`` call).
    nested: bool
    rep: int | None
    child_ns: int
    #: What the entry point's counter measured; None for uncounted ones.
    items: int | None

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Records nested spans on one thread; ``rep`` tags the replication."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rep: int | None = None
        self._stack: list[list] = []  # open spans: [id, layer, child_ns]
        self._next_id = 0

    def call(self, layer, name, fn, args, kwargs, count=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, layer, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent[2] += end - start
        self.spans.append(
            Span(
                span_id,
                layer,
                name,
                start,
                end,
                None if parent is None else parent[0],
                parent is not None and parent[1] == layer,
                self.rep,
                frame[2],
                None if count is None else int(count(args, result)),
            )
        )
        return result

    def wrap(self, layer: str, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs, count)

        return traced

    def wrap_build(self, fn):
        """A build's ``__call__(self, index, seed)``: opens the replication."""
        tracer = self

        @functools.wraps(fn)
        def traced(build, index, seed):
            tracer.rep = int(index)
            return tracer.call("build", type(build).__name__, fn, (build, index, seed), {})

        return traced


def _rows(args, result) -> int:
    return len(result)


def _scalar_rows(args, result) -> int:
    # Rows the cluster dispatches one decision at a time: its policy has no
    # block selector, so the batched path replays select_node per request.
    cluster, rids = args[0], args[1]
    return len(rids) if getattr(cluster.dispatch, "select_block", None) is None else 0


def entry_points() -> list[tuple[str, type, tuple[str, ...], object]]:
    """``(layer, base class, method names, item counter)`` for every layer.

    Methods are wrapped on the base and on every subclass that defines them
    itself, so overrides are timed and ``super()`` calls nest.
    """
    from repro.cluster.autoscale import AutoscalerPolicy
    from repro.cluster.model import ClusterServerModel
    from repro.cluster.partition import RatePartitioner
    from repro.core.admission import AdmissionPolicy
    from repro.core.controller import PsdController
    from repro.simulation.generator import RequestSource
    from repro.simulation.ledger import RequestLedger
    from repro.simulation.monitor import WindowedMonitor
    from repro.simulation.scenario import Scenario
    from repro.simulation.server_models import ServerModel

    return [
        ("scenario", Scenario, ("run",), None),
        ("generator", RequestSource, ("draw_block",), lambda a, r: len(r[0])),
        ("ledger", RequestLedger, ("append_batch", "log_completions"), None),
        ("admission", AdmissionPolicy, ("decide_block", "observe_window"), None),
        ("cluster", ClusterServerModel, ("submit_batch",), _scalar_rows),
        ("cluster", ClusterServerModel, ("drain", "apply_rates", "apply_fleet_event"), None),
        ("partition", RatePartitioner, ("partition",), None),
        ("server", ServerModel, ("drain",), _rows),
        ("server", ServerModel, ("submit_batch", "apply_rates"), None),
        ("controller", PsdController, ("observe_window",), None),
        ("autoscale", AutoscalerPolicy, ("observe_boundary",), _rows),
        ("monitor", WindowedMonitor, ("samples", "ratio_series"), None),
    ]


def _class_tree(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def instrument(tracer: Tracer):
    """Wrap every entry point; returns a callable that restores the originals."""
    from repro.cluster.model import ClusterServerModel
    from repro.experiments.autoscale import AutoscaleBuild
    from repro.experiments.cluster import ClusterScalingBuild
    from repro.simulation import runner

    patched: list[tuple[object, str, object]] = []

    def patch(owner, name, replacement):
        patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    for layer, base, names, count in entry_points():
        for cls in _class_tree(base):
            if layer == "server" and issubclass(cls, ClusterServerModel):
                continue  # the cluster is its own layer
            for name in names:
                method = vars(cls).get(name)
                if method is not None and not getattr(method, "__isabstractmethod__", False):
                    patch(cls, name, tracer.wrap(layer, f"{cls.__name__}.{name}", method, count))
    for cls in (ClusterScalingBuild, AutoscaleBuild):
        patch(cls, "__call__", tracer.wrap_build(vars(cls)["__call__"]))
    # ReplicationRunner.run looks the summary function up at call time.
    patch(
        runner,
        "summarise_replications",
        tracer.wrap("monitor", "summarise_replications", runner.summarise_replications),
    )

    def restore() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)

    return restore


def layer_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per layer: self ns, calls (not counting same-layer nesting), and for
    the counted entry points their calls, items and calls with items > 0."""
    totals: dict[str, dict[str, int]] = defaultdict(
        lambda: {"self_ns": 0, "calls": 0, "counted": 0, "items": 0, "yielding": 0}
    )
    for span in spans:
        entry = totals[span.layer]
        entry["self_ns"] += span.self_ns
        entry["calls"] += not span.nested
        if span.items is not None:
            entry["counted"] += 1
            entry["items"] += span.items
            entry["yielding"] += span.items > 0
    return dict(totals)


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """Write spans as Chrome trace-event JSON (loads in Perfetto)."""
    origin = min((span.start for span in spans), default=0)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"rep": span.rep, "self_us": span.self_ns / 1e3, "items": span.items},
        }
        for span in sorted(spans, key=lambda s: (s.start, -s.end))
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
