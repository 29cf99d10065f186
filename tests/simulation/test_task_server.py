"""Tests for the rate-scalable FCFS task server."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.distributions import BoundedPareto, Deterministic
from repro.errors import SimulationError
from repro.simulation import (
    FcfsTaskServer,
    MeasurementConfig,
    RateScalableServers,
    RequestLedger,
    Scenario,
    SimulationEngine,
    SimulationTrace,
)
from repro.types import TrafficClass
from tests.conftest import drain_rows, make_classes, submit_rows


def make_server(rate):
    engine = SimulationEngine()
    server = FcfsTaskServer(engine, rate, ledger=RequestLedger(4))
    return engine, server


def submit(server, arrival, size, class_index=0):
    rid = server.ledger.append(class_index, arrival, size)
    submit_rows(server, [rid])
    return rid


def advance(engine, server, time):
    """Move the clock to ``time`` and drain the server there.

    Returns records of the requests completed by the drain, in completion
    order (the drain's completions are logged into the ledger too).
    """
    engine.run_until(time)
    rids, _ = drain_rows(server, time)
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


class TestDrainContract:
    """A bulk drain hands its fresh rows back unwritten; the carried row and
    short scalar drains write themselves."""

    def test_the_bulk_fold_leaves_its_fresh_rows_to_the_caller(self):
        engine, server = make_server(1.0)
        ledger = server.ledger
        # 80 rows at once: both drains below take the bulk fold.
        rids = ledger.append_batch(np.zeros(80, dtype=np.int64), np.zeros(80), np.ones(80))
        submit_rows(server, rids)
        engine.run_until(10.5)
        done, starts, times = server.drain(10.5)
        assert done.tolist() == list(range(10))
        assert starts.tolist() == [float(i) for i in range(10)]
        assert times.tolist() == [float(i + 1) for i in range(10)]
        assert np.isnan(ledger.service_start_time[:10]).all()
        assert np.isnan(ledger.completion_time[:10]).all()
        # The row caught mid-service at ``now`` is started right away.
        assert server.in_service == 10 and ledger.start_of(10) == 10.0
        ledger.serve_batch(done, starts, times)
        # The carried row leads the next run, already completed; the fresh
        # rows behind it are again the caller's to write.
        engine.run_until(12.5)
        done, starts, times = server.drain(12.5)
        assert done.tolist() == [10, 11]
        assert starts.tolist() == [11.0]
        assert times.tolist() == [11.0, 12.0]
        assert ledger.completion_of(10) == 11.0
        assert np.isnan(ledger.start_of(11))

    def test_a_short_drain_writes_its_rows(self):
        engine, server = make_server(1.0)
        first = submit(server, 0.0, 1.0)
        second = submit(server, 0.0, 1.0)
        engine.run_until(5.0)
        done, starts, times = server.drain(5.0)
        assert done.tolist() == [first, second]
        assert starts.size == 0
        assert times.tolist() == [1.0, 2.0]
        assert server.ledger.start_of(second) == 1.0
        assert server.ledger.completion_of(second) == 2.0


def make_node(num_classes=3):
    classes = tuple(
        TrafficClass(f"c{i}", 0.0, Deterministic(1.0), float(i + 1)) for i in range(num_classes)
    )
    node = RateScalableServers()
    node.bind(SimulationEngine(), classes)
    node.apply_rates([1.0] * num_classes)
    return node


class TestNodeSubmitAndDrain:
    def test_a_block_is_split_by_class_in_arrival_order(self):
        node = make_node()
        ledger = node.ledger
        classes = [2, 0, 1, 0, 2, 2]
        rids = ledger.append_batch(classes, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5], [1.0] * 6)
        node.submit_batch(rids)
        assert node.backlogs() == (2, 1, 3)
        node.engine.run_until(20.0)
        done = node.drain(20.0)
        ledger.log_completions(done)
        # Class 2 serves rows 0, 4 and 5 FCFS: 0-1, 2-3, 3-4.
        assert ledger.completion_time[[0, 4, 5]].tolist() == [1.0, 3.0, 4.0]
        assert ledger.completion_time[[1, 3]].tolist() == [1.5, 2.5]
        assert ledger.completion_of(2) == 2.0
        np.testing.assert_array_equal(done, [0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("foreign", [-1, 3])
    def test_a_row_of_a_foreign_class_is_rejected(self, foreign):
        node = make_node()
        ledger = node.ledger
        rids = ledger.append_batch([0, 1], [0.0, 1.0], [1.0, 1.0])
        # The ledger refuses such a class on append: forge it in the column.
        ledger._class_index[rids[1]] = foreign
        with pytest.raises(SimulationError, match=f"request of class {foreign} submitted"):
            node.submit_batch(rids)
        assert node.backlogs() == (0, 0, 0)

    def test_exact_ties_merge_in_class_order(self):
        node = make_node(2)
        ledger = node.ledger
        # Both classes complete at t = 2, 3, ... 41: class 1 arrives later
        # with a shorter first request.  The 40 rows queued per class take
        # the bulk fold, and the drain at 10.5 carries a row of each class.
        rids = ledger.append_batch(
            [0] * 40 + [1] * 40, [1.0] * 40 + [1.5] * 40, [1.0] * 40 + [0.5] + [1.0] * 39
        )
        node.submit_batch(rids)
        for now in (10.5, 60.0):
            node.engine.run_until(now)
            ledger.log_completions(node.drain(now))
        done = ledger.completed_ids
        expected = [float(t) for t in range(2, 42) for _ in (0, 1)]
        assert ledger.completion_time[done].tolist() == expected
        assert ledger.class_index[done].tolist() == [0, 1] * 40


class TestOneLedgerWritePerNodeDrain:
    """A node drain writes its class servers' fresh rows in at most one
    ``serve_batch``, on one node and on each member of a block-route
    cluster."""

    @pytest.mark.parametrize("nodes", [None, 2])
    def test_at_most_one_serve_batch_per_drain(self, monkeypatch, nodes):
        writes: list[int] = []
        serve_batch = RequestLedger.serve_batch
        drain = RateScalableServers.drain

        def counted_serve_batch(self, *args):
            writes[-1] += 1
            return serve_batch(self, *args)

        def counted_drain(self, *args):
            writes.append(0)
            return drain(self, *args)

        monkeypatch.setattr(RequestLedger, "serve_batch", counted_serve_batch)
        monkeypatch.setattr(RateScalableServers, "drain", counted_drain)
        classes = make_classes(BoundedPareto(0.1, 10.0, 1.5), 0.8, (1.0, 2.0, 4.0))
        server = RateScalableServers() if nodes is None else make_cluster(nodes, "round_robin")
        config = MeasurementConfig(warmup=0.0, horizon=1_000.0, window=200.0)
        result = Scenario(classes, config, server=server, seed=3).run()
        assert result.ledger.num_completed > 100
        assert max(writes) == 1
        # A window brings ~100 rows to each class server: every drain at a
        # boundary takes the bulk fold, so each node writes once a window.
        assert sum(writes) >= len(result.rate_history) - 1
