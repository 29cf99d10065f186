"""Run-end invariants every simulation result must satisfy.

:func:`check_run` reads nothing but the finished result's ledger and
configuration, so it holds the batched pipeline and the per-event reference
to the same rules without trusting either:

* lifecycle order: ``start >= arrival`` and ``completion >= start``, and no
  completion without a start;
* no shed row ever starts or completes;
* the completion log is time-ordered and is exactly the completed set;
* on single-node runs, per-class FCFS: within a class the started and the
  completed rows are prefixes of the arrival order, and each start is at
  or after ``max(arrival, previous same-class completion)`` — with
  equality (the non-idling rule) when every class owns its own server, as
  in the paper's Fig. 1 model;
* on single-node runs of such servers, a clean-room replay of every class
  server from the ledger's class, arrival, size and disposition columns
  and ``result.rate_history`` alone (each row starts at ``max(arrival,
  previous completion)``; a rate change re-bases the remaining work to
  ``max(remaining - elapsed * rate, 0)``; the row completes at its last
  progress point plus ``remaining / rate``; rates past the node's
  declared capacity are scaled down to it): every written start and
  completion equals the replay's bit for bit, and every row the replay
  completes by the horizon has its completion written;
* on clusters of such servers, the same exact rule per node and class, the
  ledger's ``node`` column telling the nodes apart; that column holds
  exactly one node per admitted row, and ``-1`` on every shed row, and
  every admitted row's node was live at the row's arrival (read from the
  fleet timeline: fleet events fire before same-instant arrivals);
* per class, the sample-path Little identity: the area under the number
  in system, integrated by an event sweep over ``[0, horizon]``, equals the
  summed sojourn times truncated at the horizon;
* admission counts reconcile with the ledger's dispositions: the result's
  shed and degraded-into counts, and with a live telemetry facade its
  ``admission.rejected``, ``admission.degraded`` and ``scenario.arrivals``
  counters;
* on clusters, from the fleet timeline alone: ``node_hours`` equals the
  integral of the live and draining node count over ``[0, horizon]``, and,
  when every node declares a capacity, the work completed by the horizon
  is at most the integral of the live and draining nodes' capacity.

The ``checked_runs`` fixture in ``tests/conftest.py`` applies it to every
``Scenario.run`` of a test in the test's own process; :class:`CheckedBuild`
applies it to every result of a replication build wherever the build runs,
so results made on the worker pool are checked too.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.cluster.autoscale import node_hours
from repro.cluster.fleet import NODE_DRAINING, NODE_LIVE
from repro.simulation.ledger import DISPOSITION_DEGRADED, DISPOSITION_SHED

__all__ = ["check_run", "CheckedBuild"]


def check_run(
    result, *, per_class_servers: bool, telemetry=None, capacity: float | None = None
) -> None:
    """Assert the run-end invariants on ``result``.

    ``per_class_servers`` says every class owns its own FCFS server on
    every node (a single ``RateScalableServers``, or a cluster of them),
    which makes each start exactly the non-idling ``max(arrival, previous
    same-class completion on the node)``; a cluster is checked per node
    from its ledger's ``node`` column.  ``telemetry`` is the run's
    :class:`~repro.telemetry.Telemetry` facade, if any; ``capacity`` the
    single node's declared capacity (``None``: unconstrained).
    """
    ledger = result.ledger
    arrival = ledger.arrival_time
    start = ledger.service_start_time
    done = ledger.completion_time
    classes = ledger.class_index
    started = ~np.isnan(start)
    completed = ~np.isnan(done)
    shed = ledger.disposition == DISPOSITION_SHED

    assert np.all(start[started] >= arrival[started]), "a start precedes its arrival"
    assert np.all(done[completed] >= start[completed]), "a completion precedes its start"
    assert not np.any(completed & ~started), "a row completed without starting"
    assert not np.any(shed & (started | completed)), "a shed row was served"

    log = ledger.completed_ids
    assert np.all(np.diff(done[log]) >= 0.0), "the completion log goes back in time"
    assert np.array_equal(np.sort(log), np.flatnonzero(completed)), (
        "the completion log is not the completed set"
    )

    _check_admission_counts(result, shed, telemetry)

    horizon = result.config.horizon
    single_node = result.fleet_timeline is None
    if not single_node:
        _check_fleet_integrals(
            result.fleet_timeline, ledger.size[completed & (done <= horizon)], horizon
        )
    node_of = ledger.node
    if single_node:
        assert node_of is None, "a single-server ledger has a node column"
    else:
        num_nodes = len(result.fleet_timeline[0][1])
        assert np.array_equal(node_of < 0, shed), (
            "the node column is not set on exactly the admitted rows"
        )
        assert np.all(node_of < num_nodes), "the node column names a node the cluster lacks"
        _check_live_dispatch(result.fleet_timeline, arrival[~shed], node_of[~shed])
    if single_node and per_class_servers:
        _check_replay(result, shed, capacity)
    for cls in range(len(result.classes)):
        rows = np.flatnonzero((classes == cls) & ~shed)
        if single_node:
            _check_fcfs(arrival[rows], start[rows], done[rows], exact=per_class_servers)
        elif per_class_servers:
            for node in np.unique(node_of[rows]).tolist():
                on_node = rows[node_of[rows] == node]
                _check_fcfs(arrival[on_node], start[on_node], done[on_node], exact=True)
        _check_little(arrival[rows], done[rows], horizon)


class CheckedBuild:
    """A picklable replication build over per-class FCFS servers (of
    unconstrained nodes) whose every result passes :func:`check_run` in the
    process that built it."""

    def __init__(self, build) -> None:
        self.build = build

    def __call__(self, index, seed):
        result = self.build(index, seed)
        check_run(result, per_class_servers=True)
        return result


def _check_replay(result, shed, capacity) -> None:
    """Replay every class server of a one-node run, one row at a time."""
    ledger = result.ledger
    changes = [time for time, _ in result.rate_history]
    rates = []
    for _, applied in result.rate_history:
        applied = list(applied)
        if capacity is not None and sum(applied) > capacity:
            scale = capacity / sum(applied)
            applied = [rate * scale for rate in applied]
        rates.append(applied)
    ends = changes[1:] + [math.inf]
    starts = np.full(len(ledger), np.nan)
    completions = np.full(len(ledger), np.nan)
    for cls in range(len(result.classes)):
        rows = np.flatnonzero((ledger.class_index == cls) & ~shed)
        previous = -math.inf
        for rid, arrival, size in zip(
            rows.tolist(), ledger.arrival_time[rows].tolist(), ledger.size[rows].tolist()
        ):
            start = arrival if arrival > previous else previous
            if start == math.inf:
                break
            segment = bisect_right(changes, start) - 1
            since, remaining = start, size
            while True:
                rate, end = rates[segment][cls], ends[segment]
                if rate > 0.0:
                    completion = since + remaining / rate
                    if completion <= end:
                        break
                    remaining = max(remaining - (end - since) * rate, 0.0)
                elif end == math.inf:
                    completion = math.inf
                    break
                since = end
                segment += 1
            starts[rid], completions[rid] = start, completion
            previous = completion
    written = ~np.isnan(ledger.service_start_time)
    assert np.array_equal(ledger.service_start_time[written], starts[written]), (
        "a start differs from the clean-room replay"
    )
    written = ~np.isnan(ledger.completion_time)
    assert np.array_equal(ledger.completion_time[written], completions[written]), (
        "a completion differs from the clean-room replay"
    )
    due = completions <= result.config.horizon
    assert np.all(written[due]), "a row the replay completes by the horizon was not completed"


def _check_admission_counts(result, shed, telemetry) -> None:
    ledger = result.ledger
    num_shed = int(np.count_nonzero(shed))
    degraded = ledger.disposition == DISPOSITION_DEGRADED
    degraded_into = np.bincount(ledger.class_index[degraded], minlength=len(result.classes))
    assert sum(result.rejected_counts) == num_shed, "shed count disagrees with the ledger"
    assert tuple(result.degraded_into_counts) == tuple(degraded_into.tolist()), (
        "degraded-into counts disagree with the ledger"
    )
    if telemetry is None or not telemetry.enabled:
        return
    registry = telemetry.registry

    def count(name: str) -> int:
        counter = registry.get(name)
        return 0 if counter is None else counter.value

    assert count("admission.rejected") == num_shed, "telemetry shed count disagrees"
    assert count("admission.degraded") == int(np.count_nonzero(degraded)), (
        "telemetry degraded count disagrees"
    )
    assert count("scenario.arrivals") == len(ledger) - num_shed, (
        "telemetry arrival count disagrees with the admitted rows"
    )


def _check_live_dispatch(timeline, arrival, node) -> None:
    """Every row went to a node that was live at its arrival.  An entry at
    time ``t`` is in force for arrivals at ``t``: fleet events fire first."""
    entries = sorted(timeline, key=lambda entry: entry[0])
    live = np.array([[state == NODE_LIVE for state in states] for _, states, _ in entries])
    in_force = np.searchsorted([time for time, _, _ in entries], arrival, side="right") - 1
    assert np.all(in_force >= 0), "a row arrived before the fleet timeline starts"
    assert np.all(live[in_force, node]), "a row was dispatched to a node that was not live"


def _check_fleet_integrals(timeline, completed_sizes, horizon: float) -> None:
    """Integrate the piecewise-constant fleet timeline over ``[0, horizon]``
    without ``node_state_spans``, which ``node_hours`` uses."""
    entries = sorted(timeline, key=lambda entry: entry[0])
    declared = all(None not in capacities for _, _, capacities in entries)
    ends = [time for time, _, _ in entries[1:]] + [horizon]
    node_time, capacity_time = [], []
    for (time, states, capacities), end in zip(entries, ends):
        span = max(min(end, horizon) - time, 0.0)
        serving = [node for node, state in enumerate(states) if state in (NODE_LIVE, NODE_DRAINING)]
        node_time.append(span * len(serving))
        if declared:
            capacity_time.extend(span * capacities[node] for node in serving)
    hours = node_hours(timeline, horizon=horizon)
    assert math.isclose(hours, math.fsum(node_time), rel_tol=1e-9, abs_tol=1e-9), (
        f"node_hours {hours} disagrees with the fleet timeline's integral {math.fsum(node_time)}"
    )
    if declared:
        work, bound = math.fsum(completed_sizes.tolist()), math.fsum(capacity_time)
        assert work <= bound * (1.0 + 1e-9), (
            f"completed work {work} exceeds the integral of live and draining capacity {bound}"
        )


def _check_fcfs(arrival, start, done, *, exact: bool) -> None:
    n_started = int(np.count_nonzero(~np.isnan(start)))
    n_done = int(np.count_nonzero(~np.isnan(done)))
    assert not np.isnan(start[:n_started]).any(), "a class started out of FCFS order"
    assert not np.isnan(done[:n_done]).any(), "a class completed out of FCFS order"
    if n_started == 0:
        return
    earliest = arrival[:n_started].copy()
    earliest[1:] = np.maximum(earliest[1:], done[: n_started - 1])
    if exact:
        assert np.array_equal(start[:n_started], earliest), "a start broke the non-idling rule"
    else:
        assert np.all(start[:n_started] >= earliest), "a start overtook its class"


def _check_little(arrival, done, horizon: float) -> None:
    leave = np.where(np.isnan(done), horizon, np.minimum(done, horizon))
    sojourn_sum = math.fsum((leave - arrival).tolist())
    # Event sweep: +1 at each arrival, -1 at each departure; the number in
    # system is constant between consecutive events.
    times = np.concatenate((arrival, leave))
    steps = np.concatenate((np.ones(arrival.shape[0]), -np.ones(leave.shape[0])))
    order = np.argsort(times, kind="stable")
    times, steps = times[order], steps[order]
    in_system = np.cumsum(steps)[:-1]
    area = math.fsum((in_system * np.diff(times)).tolist())
    assert math.isclose(area, sojourn_sum, rel_tol=1e-9, abs_tol=1e-9), (
        f"Little identity broken: area {area} vs sojourn sum {sojourn_sum}"
    )
