"""The FCFS task server against an independent Lindley-recursion oracle.

The oracle below shares no code with :mod:`repro.simulation.task_server`:
it takes the whole script of arrivals and rate changes and computes every
request's start and completion with the textbook recursion
``start = max(arrival, previous completion)``, integrating the remaining
work across the piecewise-constant rate (a rate change charges the work done
at the old rate, ``remaining - elapsed * rate`` clamped at zero; rate zero
does no work).  The server, driven by the same script through ``submit_batch``
/ ``push`` / ``drain`` / ``set_rate``, must write bit-equal timestamps.

Times, gaps and sizes sit on a 0.25 grid and most rates are powers of two,
so arrivals and completions land exactly on drain instants (``arrival ==
now`` and ``completion == now`` ties); a rate of 0.3 adds inexact division.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import FcfsTaskServer, RequestLedger, SimulationEngine
from repro.simulation.ledger import DISPOSITION_SHED
from repro.simulation.task_server import _SCALAR_BATCH_LIMIT
from tests.conftest import drain_rows, submit_rows

GRID = 0.25
RATES = (0.0, 0.3, 0.5, 1.0, 2.0)


def lindley_oracle(requests, changes):
    """Per request ``(start, completion, segment)``.

    ``requests`` are ``(arrival, size)`` in FCFS order; ``changes`` are the
    ``(time, rate)`` rate segments in order, the first at time 0.
    ``segment`` indexes the rate segment the completion falls in (``inf``
    completions never happen).
    """
    times = [t for t, _ in changes]
    out = []
    previous = -math.inf
    for arrival, size in requests:
        start = max(arrival, previous)
        segment = bisect_right(times, start) - 1
        since, remaining = start, size
        while True:
            rate = changes[segment][1]
            end = times[segment + 1] if segment + 1 < len(times) else math.inf
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
        out.append((start, completion, segment))
        previous = completion
    return out


def run_script(initial_rate, steps):
    """Drive a server through ``steps``; returns what the oracle needs.

    Steps: ``("submit", [(gap, size), ...])`` queues a block, ``("push",
    (gap, size))`` one request, ``("drain", dt)`` advances the clock and
    drains, ``("rate", dt, rate)`` drains then changes the rate.  Gaps count
    from the later of the last arrival and the clock, so no request arrives
    before a drain already passed.
    """
    engine = SimulationEngine()
    ledger = RequestLedger(1)
    server = FcfsTaskServer(engine, initial_rate, ledger=ledger)
    requests: list[tuple[float, float]] = []
    changes = [(0.0, initial_rate)]
    drains = []
    now = 0.0
    last_arrival = 0.0

    def arrival_after(gap):
        return max(last_arrival, now) + gap * GRID

    for step in steps:
        kind = step[0]
        if kind == "submit":
            arrivals = []
            for gap, size in step[1]:
                last_arrival = arrival_after(gap)
                arrivals.append(last_arrival)
                requests.append((last_arrival, size * GRID))
            k = len(arrivals)
            sizes = [size * GRID for _, size in step[1]]
            submit_rows(server, ledger.append_batch(np.zeros(k, dtype=np.int64), arrivals, sizes))
        elif kind == "push":
            gap, size = step[1]
            last_arrival = arrival_after(gap)
            requests.append((last_arrival, size * GRID))
            server.push(ledger.append(0, last_arrival, size * GRID), last_arrival, size * GRID)
        else:
            now += step[1] * GRID
            engine.run_until(now)
            rids, done = drain_rows(server, now)
            ledger.log_completions(rids)
            drains.append(
                (
                    now,
                    len(changes),
                    len(requests),
                    rids.tolist(),
                    done.tolist(),
                    server.backlog,
                    server.in_service,
                    server.idle,
                )
            )
            if kind == "rate":
                server.set_rate(step[2])
                changes.append((now, step[2]))
    return ledger, requests, changes, drains


def check_against_oracle(initial_rate, steps):
    ledger, requests, changes, drains = run_script(initial_rate, steps)
    expected = lindley_oracle(requests, changes)
    reported = 0  # requests completed so far (FCFS: always a prefix)
    started = 0
    for now, segments, submitted, rids, done, backlog, in_service, idle in drains:
        assert done == sorted(done)
        # A drain reports the completions due by ``now`` within the rate
        # segments already applied (a completion in a later segment at the
        # same instant waits for the drain after that rate change).
        first = reported
        while (
            reported < submitted
            and expected[reported][1] <= now
            and expected[reported][2] < segments
        ):
            reported += 1
        assert rids == list(range(first, reported))
        assert done == [expected[i][1] for i in range(first, reported)]
        # The next request enters service once its predecessor completed
        # and it has arrived (frozen at rate zero, but started).
        started = reported
        if reported < submitted and requests[reported][0] <= now:
            started += 1
        assert in_service == (reported if started > reported else None)
        assert backlog == submitted - started
        assert idle == (submitted == reported)
    starts = np.full(len(requests), np.nan)
    completions = np.full(len(requests), np.nan)
    starts[:started] = [start for start, _, _ in expected[:started]]
    completions[:reported] = [completion for _, completion, _ in expected[:reported]]
    assert np.array_equal(ledger.service_start_time, starts, equal_nan=True)
    assert np.array_equal(ledger.completion_time, completions, equal_nan=True)
    np.testing.assert_array_equal(ledger.completed_ids, np.arange(reported))


LIMIT = _SCALAR_BATCH_LIMIT
request = st.tuples(st.integers(0, 3), st.integers(1, 8))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.lists(request, min_size=1, max_size=5 * LIMIT)),
        st.tuples(st.just("push"), request),
        st.tuples(st.just("drain"), st.integers(0, 200)),
        st.tuples(st.just("rate"), st.integers(0, 100), st.sampled_from(RATES)),
    ),
    min_size=1,
    max_size=16,
)

#: Scripts that pin the bulk fold (drains with at least ``LIMIT`` arrived
#: requests) on its edge cases.  Gaps and sizes are in grid units.
SCRIPTS = {
    # Service time equals the gap at rate 1: at the first drain request
    # 38 completes exactly at ``now`` and request 39 arrives exactly then,
    # with later arrivals still queued (the arrival cut by bisection).
    "ties": [
        ("submit", [(1, 1)] * (LIMIT + 28)),
        ("drain", LIMIT + 8),
        ("drain", 0),
        ("rate", 8, 0.5),
        ("drain", 400),
    ],
    # Everything arrives at once: the fold runs in doubling chunks and
    # stops inside the second, with a long queue behind the cut.
    "chunks": [
        ("submit", [(0, 1)] * (10 * LIMIT)),
        ("drain", 6 * LIMIT),
        ("rate", 0, 2.0),
        ("drain", 2 * LIMIT),
        ("drain", 10 * LIMIT),
    ],
    # A freeze with a bulk block queued behind the frozen head, single
    # pushes, then a resume at another rate.
    "freeze": [
        ("submit", [(1, 2)] * (2 * LIMIT + 3)),
        ("drain", 4 * LIMIT),
        ("rate", 4, 0.0),
        ("push", (0, 4)),
        ("submit", [(0, 1)] * (LIMIT + 1)),
        ("drain", 8),
        ("rate", 0, 0.5),
        ("push", (3, 2)),
        ("drain", 20 * LIMIT),
    ],
}


class TestFoldOracle:
    @settings(max_examples=200, deadline=None)
    @given(initial_rate=st.sampled_from(RATES), steps=steps)
    def test_server_matches_lindley_oracle(self, initial_rate, steps):
        check_against_oracle(initial_rate, steps)

    @pytest.mark.parametrize("rate", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_bulk_fold_edge_cases(self, script, rate):
        _, _, _, drains = run_script(rate, SCRIPTS[script])
        # A drain completing ``LIMIT`` or more requests took the bulk fold.
        assert max(len(rids) for _, _, _, rids, *_ in drains) >= LIMIT
        check_against_oracle(rate, SCRIPTS[script])


def lifecycle_ledger():
    """Rows in every lifecycle state serve_batch must reject or accept."""
    ledger = RequestLedger(1)
    rows = {
        "ok": ledger.append(0, 0.0, 1.0),
        "fresh": ledger.append(0, 1.0, 1.0),
        "served": ledger.append(0, 0.0, 1.0),
        "shed": ledger.append(0, 1.0, 1.0, disposition=DISPOSITION_SHED),
        "completed_only": ledger.append(0, 0.0, 1.0),
    }
    ledger.serve_batch(np.array([rows["served"]]), np.array([0.0]), np.array([1.0]))
    # A completion without a start: no lifecycle method writes one, so the
    # row is assembled in the private column directly.
    ledger._completion[rows["completed_only"]] = 2.0
    return ledger, rows


class TestServeBatchInvariants:
    @pytest.mark.parametrize(
        ("row", "start", "completion", "message"),
        [
            ("shed", 1.0, 2.0, "shed request can never enter service"),
            ("served", 1.0, 2.0, "started service twice"),
            ("fresh", math.nan, 2.0, "completed without starting service"),
            ("fresh", 0.5, 2.0, "started before arriving"),
            ("completed_only", 1.0, 2.0, "completed twice"),
            ("fresh", 1.5, 1.0, "completed before service started"),
        ],
    )
    def test_violation_raises_and_writes_nothing(self, row, start, completion, message):
        ledger, rows = lifecycle_ledger()
        before = (ledger.service_start_time.copy(), ledger.completion_time.copy())
        # A valid row rides along: the whole block is rejected.
        with pytest.raises(SimulationError, match=message):
            ledger.serve_batch(
                np.array([rows["ok"], rows[row]]),
                np.array([0.0, start]),
                np.array([1.0, completion]),
            )
        assert np.array_equal(ledger.service_start_time, before[0], equal_nan=True)
        assert np.array_equal(ledger.completion_time, before[1], equal_nan=True)

    def test_valid_block_writes_both_columns_without_logging(self):
        ledger = RequestLedger(1)
        rids = ledger.append_batch(np.zeros(3, dtype=np.int64), [0.0, 0.5, 1.0], [1.0] * 3)
        ledger.serve_batch(rids, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(ledger.service_start_time, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(ledger.completion_time, [1.0, 2.0, 3.0])
        assert ledger.num_completed == 0
