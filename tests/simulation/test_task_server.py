"""Tests for the rate-scalable FCFS class servers of a
:class:`~repro.simulation.RateScalableServers` bank: one server alone, a
node of several classes, and a cluster's bank."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.distributions import BoundedPareto, Deterministic
from repro.errors import SimulationError
from repro.simulation import (
    MeasurementConfig,
    RateScalableServers,
    RequestLedger,
    Scenario,
    SimulationEngine,
)
from repro.types import TrafficClass
from tests.conftest import class_server, make_classes


def make_server(rate):
    return class_server(rate, RequestLedger(4))


def submit(server, arrival, size, class_index=0):
    rid = server.ledger.append(class_index, arrival, size)
    server.submit_batch([rid])
    return rid


def service_head(server):
    """The server's rate, the row it serves (``None`` when free) and that
    row's completion at that rate (``inf`` when free or frozen)."""
    rate, rid = server.rates[0], server.in_service[0]
    if rid is None or rate <= 0.0:
        return rate, rid, np.inf
    return rate, rid, server.progress[0] + server.remaining[0] / rate


def advance(engine, server, time):
    """Move the clock to ``time`` and drain the server there.

    Returns the row ids completed by the drain, in completion order (the
    drain's completions are logged into the ledger too).
    """
    engine.run_until(time)
    rids = server.drain(time)
    server.ledger.log_completions(rids)
    return rids.tolist()


class TestFcfsService:
    def test_single_request_full_rate(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        done = advance(engine, server, 10.0)
        assert len(done) == 1
        assert server.ledger.completion_of(done[0]) == pytest.approx(2.0)
        assert server.ledger.waiting_times([done[0]])[0] == pytest.approx(0.0)

    def test_half_rate_doubles_service_time(self):
        engine, server = make_server(0.5)
        submit(server, 0.0, 2.0)
        done = advance(engine, server, 10.0)
        assert server.ledger.completion_of(done[0]) == pytest.approx(4.0)
        assert server.ledger.start_of(done[0]) == 0.0  # served 0 -> 4
        # Slowdown uses the scaled service time: no queueing -> slowdown 0.
        assert server.ledger.slowdowns([done[0]])[0] == pytest.approx(0.0)

    def test_fcfs_order_and_waiting(self):
        engine, server = make_server(1.0)
        first = submit(server, 0.0, 2.0)
        second = submit(server, 0.0, 1.0)
        done = advance(engine, server, 10.0)
        assert done == [first, second]
        assert server.ledger.waiting_times([done[1]])[0] == pytest.approx(2.0)
        assert server.ledger.completion_of(done[1]) == pytest.approx(3.0)
        assert server.ledger.slowdowns([done[1]])[0] == pytest.approx(2.0)

    def test_backlog_accounting(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 1.0)
        submit(server, 0.0, 1.0)
        advance(engine, server, 0.0)
        assert server.in_service[0] is not None
        assert server.backlogs() == (1,)
        advance(engine, server, 10.0)
        assert server.backlogs() == (0,)
        assert server.in_service[0] is None
        assert np.count_nonzero(~np.isnan(server.ledger.completion_time)) == 2


class TestRateChanges:
    def test_rate_change_mid_service_adjusts_completion(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        # After 1 time unit (half the work done) the rate drops to 0.5, so the
        # remaining 1 unit of work takes 2 more time units.
        advance(engine, server, 1.0)
        server.apply_rates([0.5])
        done = advance(engine, server, 10.0)
        assert server.ledger.completion_of(done[0]) == pytest.approx(3.0)

    def test_rate_increase_mid_service(self):
        engine, server = make_server(0.5)
        submit(server, 0.0, 2.0)
        # After 2 time units, 1 unit of work remains; at rate 2 it takes 0.5.
        advance(engine, server, 2.0)
        server.apply_rates([2.0])
        done = advance(engine, server, 10.0)
        assert server.ledger.completion_of(done[0]) == pytest.approx(2.5)

    def test_zero_rate_freezes_service(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 2.0)
        advance(engine, server, 1.0)
        server.apply_rates([0.0])
        assert advance(engine, server, 5.0) == []
        server.apply_rates([1.0])
        done = advance(engine, server, 20.0)
        # 1 unit done before the freeze, 1 unit after it lifts at t=5.
        assert server.ledger.completion_of(done[0]) == pytest.approx(6.0)

    def test_multiple_rate_changes_conserve_work(self):
        engine, server = make_server(0.8)
        submit(server, 0.0, 4.0)
        for t, rate in ((1.0, 0.4), (2.0, 1.0), (3.0, 0.6)):
            advance(engine, server, t)
            server.apply_rates([rate])
        done = advance(engine, server, 50.0)
        # Work done: 0.8 + 0.4 + 1.0 = 2.2 by t=3; remaining 1.8 at 0.6 -> 3 more.
        assert server.ledger.completion_of(done[0]) == pytest.approx(6.0)

    def test_a_rebase_past_the_remaining_work_completes_at_the_change(self):
        """A rate change one ulp before a running service would complete:
        the progress made at the old rate rounds past the remaining work
        (``elapsed * rate - remaining`` is +4.4e-16), so the re-base clamps
        the remaining work at zero and the row completes at the change
        instant, not before it."""
        start, size, rate = 1.7240641171971638, 3.3162957422263157, 0.7376442793563968
        change = 6.219856784524324
        engine, server = make_server(rate)
        rid = submit(server, start, size)
        assert advance(engine, server, change) == []
        assert (change - start) * rate - size > 0.0
        server.apply_rates([0.5])
        assert advance(engine, server, change + 10.0) == [rid]
        assert server.ledger.completion_of(rid) == change

    def test_rate_change_while_idle_is_harmless(self):
        engine, server = make_server(1.0)
        server.apply_rates([0.3])
        assert server.rates[0] == pytest.approx(0.3)
        engine, server2 = make_server(1.0)
        server2.apply_rates([0.5])
        submit(server2, 0.0, 1.0)
        done = advance(engine, server2, 10.0)
        assert server2.ledger.completion_of(done[0]) == pytest.approx(2.0)

    def test_negative_rate_rejected(self):
        engine, server = make_server(1.0)
        with pytest.raises(Exception):
            server.apply_rates([-0.1])

    def test_busy_time_accounting(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 1.5)
        advance(engine, server, 10.0)
        ledger = server.ledger
        done = ledger.completed_ids
        span = ledger.completion_time[done] - ledger.service_start_time[done]
        assert float(span.sum()) == pytest.approx(1.5)


def place(server, arrival, size):
    """Place one row on the bank's completion calendar (node 0)."""
    rid = server.ledger.append(0, arrival, size)
    server.dispatch(
        np.array([rid]), np.array([0]), np.array([arrival]), np.array([size]), lambda rid, c: 0
    )
    return rid


class TestCalendarService:
    """On the completion calendar the bank books each head's completion and,
    at a drain, starts every arrived head, so that ``apply_rates`` re-bases
    it like a block-route row in service."""

    def test_a_head_in_service_keeps_its_progress_across_a_rate_change(self):
        engine, server = make_server(1.0)
        rid = place(server, 0.0, 2.0)
        assert advance(engine, server, 1.0) == []
        assert server.in_service == [rid] and server.ledger.start_of(rid) == 0.0
        server.apply_rates([0.5])  # one unit of work left at t=1
        assert service_head(server) == (0.5, rid, 3.0)
        # A later drain keeps the head where it is.
        assert advance(engine, server, 2.0) == []
        assert service_head(server) == (0.5, rid, 3.0)
        assert advance(engine, server, 10.0) == [rid]
        assert server.ledger.completion_of(rid) == 3.0
        assert server.in_service == [None] and server.backlogs() == (0,)

    def test_the_next_head_starts_at_max_arrival_last_completion(self):
        engine, server = make_server(1.0)
        first = place(server, 0.0, 2.0)
        second = place(server, 1.0, 2.0)
        assert advance(engine, server, 1.0) == []
        assert server.backlogs() == (1,)
        # The first row completes at t=2; the second, arrived at t=1,
        # starts then.
        assert advance(engine, server, 3.0) == [first]
        assert server.ledger.completion_of(first) == 2.0
        assert server.in_service == [second] and server.ledger.start_of(second) == 2.0
        assert service_head(server) == (1.0, second, 4.0)
        server.apply_rates([2.0])  # one unit of work left at t=3
        assert service_head(server) == (2.0, second, 3.5)
        assert advance(engine, server, 10.0) == [second]
        assert server.ledger.completion_of(second) == 3.5

    def test_a_frozen_head_starts_at_its_arrival_and_completes_at_the_new_rate(self):
        engine, server = make_server(0.0)
        rid = place(server, 0.5, 1.0)
        assert advance(engine, server, 0.5) == []
        assert server.ledger.start_of(rid) == 0.5
        assert service_head(server) == (0.0, rid, np.inf)
        assert advance(engine, server, 2.0) == []
        server.apply_rates([1.0])
        assert service_head(server) == (1.0, rid, 3.0)
        assert advance(engine, server, 10.0) == [rid]
        assert server.ledger.completion_of(rid) == 3.0

    def test_the_calendar_starts_on_an_empty_bank(self):
        engine, server = make_server(1.0)
        submit(server, 0.0, 1.0)
        with pytest.raises(SimulationError, match="starts on an empty bank"):
            place(server, 0.5, 1.0)

    def test_a_calendar_bank_refuses_a_block(self):
        """A bank on the calendar drains only the calendar, so a block
        queued on its columns would never be served."""
        engine, server = make_server(1.0)
        first = place(server, 0.0, 1.0)
        with pytest.raises(SimulationError, match="serves on the completion calendar"):
            submit(server, 0.5, 1.0)
        assert server.pending == [[1]]
        assert advance(engine, server, 10.0) == [first]


class TestDrainContract:
    """A drain writes every row it completes: the fresh rows of the fold in
    one ``serve_batch``, the carried row by itself."""

    @staticmethod
    def recorded_writes(monkeypatch):
        writes = []
        serve_batch = RequestLedger.serve_batch

        def recording(self, rids, starts, times):
            writes.append(rids.tolist())
            serve_batch(self, rids, starts, times)

        monkeypatch.setattr(RequestLedger, "serve_batch", recording)
        return writes

    def test_the_bulk_fold_writes_its_fresh_rows_in_one_call(self, monkeypatch):
        engine, server = make_server(1.0)
        ledger = server.ledger
        writes = self.recorded_writes(monkeypatch)
        # 80 rows at once.
        rids = ledger.append_batch(np.zeros(80, dtype=np.int64), np.zeros(80), np.ones(80))
        server.submit_batch(rids)
        engine.run_until(10.5)
        assert server.drain(10.5).tolist() == list(range(10))
        assert writes == [list(range(10))]
        assert ledger.service_start_time[:10].tolist() == [float(i) for i in range(10)]
        assert ledger.completion_time[:10].tolist() == [float(i + 1) for i in range(10)]
        # The row caught mid-service at ``now`` is started right away.
        assert server.in_service == [10] and ledger.start_of(10) == 10.0
        # The carried row leads the next run and completes itself; the
        # fresh row behind it is the one written in bulk.
        engine.run_until(12.5)
        assert server.drain(12.5).tolist() == [10, 11]
        assert writes[1:] == [[11]]
        assert ledger.completion_of(10) == 11.0
        assert (ledger.start_of(11), ledger.completion_of(11)) == (11.0, 12.0)

    def test_a_short_drain_writes_its_rows_in_one_batch(self, monkeypatch):
        """Two rows take the same fold as eighty: one ``serve_batch``."""
        engine, server = make_server(1.0)
        writes = self.recorded_writes(monkeypatch)
        first = submit(server, 0.0, 1.0)
        second = submit(server, 0.0, 1.0)
        engine.run_until(5.0)
        assert server.drain(5.0).tolist() == [first, second]
        assert writes == [[first, second]]
        assert (server.ledger.start_of(first), server.ledger.completion_of(first)) == (0.0, 1.0)
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
        # with a shorter first request.  The drain at 10.5 carries a row of
        # each class.
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
    """A bank drain writes its class servers' fresh rows in at most one
    ``serve_batch``, on one node and on a block-route cluster's bank of
    every node."""

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
        # A window brings ~100 rows to each class server, so every drain
        # at a boundary completes some and the bank writes once a window.
        assert sum(writes) >= len(result.rate_history) - 1
