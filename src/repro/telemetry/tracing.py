"""Span-based request tracing exported as Chrome trace-event JSON.

Traces are assembled *after* the run, from artefacts the simulation records
anyway (the ledger's lifecycle columns and, on clustered runs, its ``node``
column, ``rate_history``, ``fleet_timeline`` and — optionally — a
:class:`~repro.telemetry.Telemetry` facade's batch/drain marks).  Building
post-run has two consequences worth the design: the hot path pays nothing
for tracing, and the trace is a pure function of the
:class:`~repro.simulation.SimulationResult` — a run under ``workers=N``
produces byte-identical events to the serial run because the results
themselves are bit-identical.

Sampling is deterministic and seed-stable: each request's keep/drop decision
is a `splitmix64 <https://prng.di.unimi.it/splitmix64.c>`_ hash of
``(replication seed, request id)`` compared against the sample rate, so two
runs of the same replication — serial or parallel, whole-run or resumed —
select the same request ids.

The output is the Chrome trace-event JSON object format (``traceEvents`` +
``displayTimeUnit``), viewable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Simulated seconds map to trace microseconds.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ParameterError

__all__ = [
    "trace_seed",
    "sample_mask",
    "chrome_trace_events",
    "write_chrome_trace",
]

#: Simulated time (seconds) -> trace-event timestamps (microseconds).
TS_SCALE = 1e6

#: Trace-event ``pid`` namespaces: run-level phases, request lifecycles,
#: and per-node fleet state lanes.
PID_PHASES = 0
PID_REQUESTS = 1
PID_FLEET = 2

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def trace_seed(seed: "int | np.random.SeedSequence") -> int:
    """A stable 64-bit key from a replication seed.

    Accepts the integer or :class:`numpy.random.SeedSequence` the scenario
    was built with.  ``generate_state`` is a pure function of the sequence's
    entropy — it never advances the spawn state — so deriving the trace key
    does not perturb any RNG stream the simulation used.
    """
    if isinstance(seed, np.random.SeedSequence):
        words = seed.generate_state(2, dtype=np.uint32)
        return (int(words[0]) << 32) | int(words[1])
    return int(seed) & _MASK64


def _splitmix64(values: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = values + _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        return x ^ (x >> _U64(31))


def sample_mask(
    rids: np.ndarray, seed: "int | np.random.SeedSequence", rate: float
) -> np.ndarray:
    """Deterministic per-request keep mask at ``rate``.

    Request ``rid`` is kept iff ``splitmix64(rid ^ key) < rate * 2**64`` with
    ``key = trace_seed(seed)`` — a pure function of ``(seed, rid)``, so the
    same requests are selected no matter how (or how often) the run that
    produced them was executed.
    """
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"sample rate must be within [0, 1], got {rate}")
    rids = np.asarray(rids)
    if rate >= 1.0:
        return np.ones(rids.shape[0], dtype=bool)
    if rate <= 0.0:
        return np.zeros(rids.shape[0], dtype=bool)
    key = _U64(trace_seed(seed))
    with np.errstate(over="ignore"):
        hashed = _splitmix64(rids.astype(np.uint64) ^ key)
    threshold = _U64(min(int(rate * 2.0**64), _MASK64))
    return hashed < threshold


def _metadata(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}


def chrome_trace_events(
    result,
    *,
    seed: "int | np.random.SeedSequence" = 0,
    sample_rate: float | None = None,
    telemetry=None,
) -> list[dict]:
    """Build the Chrome trace-event list for one simulation result.

    ``seed`` must be the replication seed the scenario ran with — it keys
    the deterministic request sampling.  ``sample_rate`` defaults to the
    telemetry facade's ``trace_sample_rate`` (or 1.0 without one).  Passing
    the run's :class:`~repro.telemetry.Telemetry` additionally emits instant
    events for the arrival blocks and bulk drains.

    Event layout: ``pid 0`` carries run phases (estimation-window spans,
    batch/drain instants), ``pid 1`` the sampled request lifecycles (one
    ``queued`` + one ``service`` complete-span per request; ``tid`` is the
    serving node, read from the ledger's ``node`` column, on clustered runs,
    the request's class otherwise), ``pid 2`` per-node fleet state (draining/down spans and
    fleet-event instants).
    """
    if sample_rate is None:
        sample_rate = telemetry.trace_sample_rate if telemetry is not None else 1.0
    ledger = result.ledger
    if ledger is None:
        raise ParameterError("chrome_trace_events needs a result carrying its ledger")
    horizon = float(result.config.horizon)
    events: list[dict] = [
        _metadata(PID_PHASES, "phases"),
        _metadata(PID_REQUESTS, "requests"),
    ]

    # --- request lifecycle spans (deterministically sampled) ---------- #
    ids = ledger.completed_ids
    keep = sample_mask(ids, seed, sample_rate)
    nodes = ledger.node
    for rid in ids[keep]:
        rid = int(rid)
        arrival = float(ledger.arrival_time[rid])
        start = float(ledger.service_start_time[rid])
        completion = float(ledger.completion_time[rid])
        class_index = int(ledger.class_index[rid])
        node = int(nodes[rid]) if nodes is not None else None
        tid = node if node is not None else class_index
        args = {"rid": rid, "class": class_index}
        if node is not None:
            args["node"] = node
        events.append(
            {
                "name": f"queued c{class_index}",
                "cat": "request",
                "ph": "X",
                "ts": arrival * TS_SCALE,
                "dur": max(start - arrival, 0.0) * TS_SCALE,
                "pid": PID_REQUESTS,
                "tid": tid,
                "args": args,
            }
        )
        events.append(
            {
                "name": f"service c{class_index}",
                "cat": "request",
                "ph": "X",
                "ts": start * TS_SCALE,
                "dur": max(completion - start, 0.0) * TS_SCALE,
                "pid": PID_REQUESTS,
                "tid": tid,
                "args": args,
            }
        )

    # --- estimation-window phase spans -------------------------------- #
    history = result.rate_history
    for index, (time, rates) in enumerate(history):
        end = history[index + 1][0] if index + 1 < len(history) else horizon
        events.append(
            {
                "name": f"window {index}",
                "cat": "phase",
                "ph": "X",
                "ts": float(time) * TS_SCALE,
                "dur": max(end - time, 0.0) * TS_SCALE,
                "pid": PID_PHASES,
                "tid": 0,
                "args": {"rates": [float(r) for r in rates]},
            }
        )

    # --- block/drain instants ------------------------------------------- #
    if telemetry is not None:
        for time, size in telemetry.batch_marks:
            events.append(
                {
                    "name": "batch",
                    "cat": "phase",
                    "ph": "i",
                    "ts": time * TS_SCALE,
                    "pid": PID_PHASES,
                    "tid": 1,
                    "s": "p",
                    "args": {"size": size},
                }
            )
        for time, count in telemetry.drain_marks:
            events.append(
                {
                    "name": "drain",
                    "cat": "phase",
                    "ph": "i",
                    "ts": time * TS_SCALE,
                    "pid": PID_PHASES,
                    "tid": 1,
                    "s": "p",
                    "args": {"completions": count},
                }
            )

    # --- fleet state lanes --------------------------------------------- #
    timeline = result.fleet_timeline
    if timeline:
        from ..cluster.fleet import NODE_LIVE, node_state_spans

        events.append(_metadata(PID_FLEET, "fleet"))
        for time, states, capacities in timeline[1:]:
            events.append(
                {
                    "name": "fleet event",
                    "cat": "fleet",
                    "ph": "i",
                    "ts": float(time) * TS_SCALE,
                    "pid": PID_FLEET,
                    "tid": 0,
                    "s": "p",
                    "args": {
                        "states": list(states),
                        "capacities": [c if c is None else float(c) for c in capacities],
                    },
                }
            )
        for node, state, start, end in node_state_spans(timeline, horizon=horizon):
            if state == NODE_LIVE:
                continue
            events.append(
                {
                    "name": state,
                    "cat": "fleet",
                    "ph": "X",
                    "ts": float(start) * TS_SCALE,
                    "dur": max(end - start, 0.0) * TS_SCALE,
                    "pid": PID_FLEET,
                    "tid": node + 1,
                    "args": {"node": node},
                }
            )
    return events


def write_chrome_trace(path, events: list[dict]) -> int:
    """Write ``events`` as a Chrome trace-event JSON object; returns the count.

    The object form (``{"traceEvents": [...]}``) is what Perfetto and
    ``chrome://tracing`` load directly.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
