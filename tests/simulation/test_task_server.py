"""Tests for the rate-scalable FCFS task server."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import FcfsTaskServer, RequestLedger, SimulationEngine, SimulationTrace


def make_server(rate, class_index=0):
    engine = SimulationEngine()
    server = FcfsTaskServer(engine, class_index, rate, ledger=RequestLedger(4))
    return engine, server


def submit(server, arrival, size, class_index=0):
    rid = server.ledger.append(class_index, arrival, size)
    server.submit_batch(np.asarray([rid], dtype=np.int64))
    return rid


def advance(engine, server, time):
    """Move the clock to ``time`` and drain the server there.

    Returns records of the requests completed by the drain, in completion
    order (the drain's completions are logged into the ledger too).
    """
    engine.run_until(time)
    rids, _ = server.drain(time)
    ledger = server.ledger
    ledger.log_completions(rids)
    records = SimulationTrace(ledger.num_classes, ledger=ledger).records
    return list(records[len(records) - len(rids) :])


class TestFcfsService:
    def test_single_request_full_rate(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        done = advance(engine, server, 10.0)
        assert len(done) == 1
        assert done[0].completion_time == pytest.approx(2.0)
        assert done[0].waiting_time == pytest.approx(0.0)

    def test_half_rate_doubles_service_time(self):
        engine, server = make_server(0.5)
        submit(server, 0.0, 2.0)
        done = advance(engine, server, 10.0)
        assert done[0].completion_time == pytest.approx(4.0)
        assert done[0].service_duration == pytest.approx(4.0)
        # Slowdown uses the scaled service time: no queueing -> slowdown 0.
        assert done[0].slowdown == pytest.approx(0.0)

    def test_fcfs_order_and_waiting(self):
        engine, server = make_server(1.0)
        first = submit(server, 0.0, 2.0)
        second = submit(server, 0.0, 1.0)
        done = advance(engine, server, 10.0)
        assert [r.request_id for r in done] == [first, second]
        assert done[1].waiting_time == pytest.approx(2.0)
        assert done[1].completion_time == pytest.approx(3.0)
        assert done[1].slowdown == pytest.approx(2.0)

    def test_backlog_accounting(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 1.0)
        submit(server, 0.0, 1.0)
        advance(engine, server, 0.0)
        assert server.is_busy
        assert server.backlog == 1
        advance(engine, server, 10.0)
        assert server.backlog == 0
        assert not server.is_busy
        assert np.count_nonzero(~np.isnan(server.ledger.completion_time)) == 2

    def test_wrong_class_rejected(self):
        engine, server = make_server(1.0)
        with pytest.raises(SimulationError):
            submit(server, 0.0, 1.0, class_index=3)


class TestRateChanges:
    def test_rate_change_mid_service_adjusts_completion(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        # After 1 time unit (half the work done) the rate drops to 0.5, so the
        # remaining 1 unit of work takes 2 more time units.
        advance(engine, server, 1.0)
        server.set_rate(0.5)
        done = advance(engine, server, 10.0)
        assert done[0].completion_time == pytest.approx(3.0)

    def test_rate_increase_mid_service(self):
        engine, server = make_server(0.5)
        submit(server, 0.0, 2.0)
        # After 2 time units, 1 unit of work remains; at rate 2 it takes 0.5.
        advance(engine, server, 2.0)
        server.set_rate(2.0)
        done = advance(engine, server, 10.0)
        assert done[0].completion_time == pytest.approx(2.5)

    def test_zero_rate_freezes_service(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        advance(engine, server, 1.0)
        server.set_rate(0.0)
        assert advance(engine, server, 5.0) == []
        server.set_rate(1.0)
        done = advance(engine, server, 20.0)
        # 1 unit done before the freeze, 1 unit after it lifts at t=5.
        assert done[0].completion_time == pytest.approx(6.0)

    def test_multiple_rate_changes_conserve_work(self):
        engine, server = make_server(0.8)
        submit(server, 0.0, 4.0)
        for t, rate in ((1.0, 0.4), (2.0, 1.0), (3.0, 0.6)):
            advance(engine, server, t)
            server.set_rate(rate)
        done = advance(engine, server, 50.0)
        # Work done: 0.8 + 0.4 + 1.0 = 2.2 by t=3; remaining 1.8 at 0.6 -> 3 more.
        assert done[0].completion_time == pytest.approx(6.0)

    def test_rate_change_while_idle_is_harmless(self):
        engine, server = make_server(1.0)
        server.set_rate(0.3)
        assert server.rate == pytest.approx(0.3)
        engine, server2 = make_server(1.0)
        server2.set_rate(0.5)
        submit(server2, 0.0, 1.0)
        done = advance(engine, server2, 10.0)
        assert done[0].completion_time == pytest.approx(2.0)

    def test_negative_rate_rejected(self):
        engine, server = make_server(1.0)
        with pytest.raises(Exception):
            server.set_rate(-0.1)

    def test_busy_time_accounting(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 1.5)
        advance(engine, server, 10.0)
        ledger = server.ledger
        done = ledger.completed_ids
        span = ledger.completion_time[done] - ledger.service_start_time[done]
        assert float(span.sum()) == pytest.approx(1.5)


class TestServe:
    """``serve`` holds a head kept elsewhere (a cluster's completion
    calendar) in the service position, so that ``set_rate`` re-bases it."""

    def test_the_next_head_replaces_the_carried_request(self):
        engine, server = make_server(1.0)
        first = submit(server, 0.0, 2.0)
        advance(engine, server, 1.0)
        assert server.in_service == first
        # The first request completed at t=2 (booked elsewhere); the next
        # head, arrived at t=1, starts at max(arrival, last) = 2.
        second = server.ledger.append(0, 1.0, 2.0)
        server.serve((second, 2.0, 2.0))
        assert server.in_service == second
        assert server.ledger.start_of(second) == 2.0
        assert server.service_head() == (1.0, second, 4.0)
        engine.run_until(3.0)
        server.set_rate(2.0)  # one unit of work left at t=3
        assert server.service_head() == (2.0, second, 3.5)

    def test_a_head_already_in_service_keeps_its_progress(self):
        engine, server = make_server(1.0)
        rid = server.ledger.append(0, 0.0, 2.0)
        server.serve((rid, 0.0, 2.0))
        engine.run_until(1.0)
        server.set_rate(0.5)
        server.serve((rid, 0.5, 2.0))
        assert server.ledger.start_of(rid) == 0.0
        assert server.service_head() == (0.5, rid, 3.0)

    def test_a_frozen_head_starts_at_its_arrival(self):
        engine, server = make_server(0.0)
        rid = server.ledger.append(0, 0.5, 1.0)
        server.serve((rid, 0.5, 1.0))
        assert server.ledger.start_of(rid) == 0.5
        assert server.service_head() == (0.0, rid, np.inf)
        engine.run_until(2.0)
        server.set_rate(1.0)
        assert server.service_head() == (1.0, rid, 3.0)

    def test_none_frees_the_service_position(self):
        engine, server = make_server(1.0)
        rid = server.ledger.append(0, 0.0, 1.0)
        server.serve((rid, 0.0, 1.0))
        server.serve(None)
        assert server.in_service is None
        assert server.service_head() == (1.0, None, np.inf)
        assert server.backlog == 0
