"""Edge-case tests for the columnar RequestLedger."""

import math
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import (
    MeasurementConfig,
    RequestLedger,
    Scenario,
    WindowedMonitor,
)
from repro.simulation.generator import TraceSource
from repro.simulation.ledger import (
    DISPOSITION_ADMITTED,
    DISPOSITION_DEGRADED,
    DISPOSITION_SHED,
)
from tests.conftest import class_server, make_classes


class TestLedgerBasics:
    def test_append_assigns_sequential_ids(self):
        ledger = RequestLedger(2)
        assert [ledger.append(i % 2, float(i), 1.0) for i in range(5)] == list(range(5))
        assert len(ledger) == 5
        np.testing.assert_array_equal(ledger.class_index, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(ledger.arrival_time, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_class_bounds_enforced(self):
        ledger = RequestLedger(2)
        with pytest.raises(SimulationError, match="out of range"):
            ledger.append(2, 0.0, 1.0)
        with pytest.raises(SimulationError, match="out of range"):
            ledger.append(-1, 0.0, 1.0)

    def test_column_views_are_read_only(self):
        ledger = RequestLedger(1)
        ledger.append(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ledger.arrival_time[0] = 99.0

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            RequestLedger(0)
        with pytest.raises(SimulationError):
            RequestLedger(capacity=0)


class TestLedgerGrowth:
    def test_growth_past_initial_capacity_keeps_ids_and_columns(self):
        ledger = RequestLedger(3, capacity=2)
        rows = 100
        for i in range(rows):
            rid = ledger.append(i % 3, float(i), float(i) + 0.5)
            assert rid == i
        assert len(ledger) == rows
        assert ledger.capacity >= rows
        np.testing.assert_array_equal(ledger.class_index, np.arange(rows) % 3)
        np.testing.assert_array_equal(ledger.size, np.arange(rows) + 0.5)
        # Lifecycle written before growth survives it.
        ledger2 = RequestLedger(1, capacity=1)
        first = ledger2.append(0, 0.0, 1.0)
        ledger2.start_service(first, 0.0)
        ledger2.complete(first, 1.0)
        for i in range(10):
            ledger2.append(0, float(i + 1), 1.0)
        assert ledger2.completion_of(first) == 1.0
        np.testing.assert_array_equal(ledger2.completed_ids, [first])

    def test_completion_log_grows_with_rows(self):
        ledger = RequestLedger(1, capacity=1)
        for i in range(20):
            rid = ledger.append(0, float(i), 1.0)
            ledger.start_service(rid, float(i))
            ledger.complete(rid, float(i) + 0.5)
        assert ledger.num_completed == 20
        np.testing.assert_array_equal(ledger.completed_ids, np.arange(20))


class TestLifecycleInvariants:
    def test_double_start_raises(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 0.0, 1.0)
        ledger.start_service(rid, 1.0)
        with pytest.raises(SimulationError, match="twice"):
            ledger.start_service(rid, 2.0)

    def test_double_complete_raises(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 0.0, 1.0)
        ledger.start_service(rid, 0.0)
        ledger.complete(rid, 1.0)
        with pytest.raises(SimulationError, match="twice"):
            ledger.complete(rid, 2.0)

    def test_complete_before_start_raises(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 0.0, 1.0)
        with pytest.raises(SimulationError, match="without starting"):
            ledger.complete(rid, 1.0)

    def test_start_before_arrival_raises(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 5.0, 1.0)
        with pytest.raises(SimulationError, match="before arriving"):
            ledger.start_service(rid, 4.0)

    def test_record_round_trips_every_lifecycle_field(self):
        ledger = RequestLedger(2)
        ledger.append(0, 0.0, 1.0)
        rid = ledger.append(1, 3.0, 2.0)
        assert math.isnan(ledger.start_of(rid)) and not ledger.is_complete(rid)
        ledger.start_service(rid, 5.0)
        ledger.complete(rid, 9.0)
        assert ledger.is_complete(rid)
        assert ledger.completed_ids.tolist() == [rid]
        assert (ledger.class_of(rid), ledger.arrival_of(rid), ledger.size_of(rid)) == (1, 3.0, 2.0)
        assert (ledger.start_of(rid), ledger.completion_of(rid)) == (5.0, 9.0)
        assert ledger.waiting_times().tolist() == [2.0]
        assert ledger.slowdowns().tolist() == [0.5]


class TestZeroRateFreeze:
    @staticmethod
    def advance(engine, server, time):
        engine.run_until(time)
        server.ledger.log_completions(server.drain(time))

    def test_zero_rate_freeze_and_resume_accounting(self):
        """A frozen task server holds remaining work; the ledger row stays
        in service and completes with the post-resume timestamps."""
        ledger = RequestLedger(1)
        engine, server = class_server(1.0, ledger)
        rid = ledger.append(0, 0.0, 2.0)
        server.submit_batch([rid])
        self.advance(engine, server, 1.0)
        server.apply_rates([0.0])
        self.advance(engine, server, 5.0)
        server.apply_rates([0.5])
        self.advance(engine, server, 50.0)
        # 1 unit of work done before the freeze; the second unit runs at
        # rate 0.5 from t=5, finishing at t=7.
        np.testing.assert_array_equal(ledger.completed_ids, [rid])
        assert ledger.start_of(rid) == 0.0
        assert ledger.completion_of(rid) == pytest.approx(7.0)
        # The row's service span covers the frozen span too: 1 + 4 + 2.
        done = ledger.completed_ids
        span = ledger.completion_time[done] - ledger.service_start_time[done]
        assert float(span.sum()) == pytest.approx(7.0)
        assert ledger.slowdowns()[0] == pytest.approx(0.0)

    def test_work_queued_behind_frozen_request_waits(self):
        ledger = RequestLedger(1)
        engine, server = class_server(1.0, ledger)
        first = ledger.append(0, 0.0, 1.0)
        second = ledger.append(0, 0.0, 1.0)
        server.submit_batch([first, second])
        self.advance(engine, server, 0.5)
        server.apply_rates([0.0])
        self.advance(engine, server, 10.0)
        # Still frozen at the horizon: nothing completed, backlog intact.
        assert ledger.num_completed == 0
        assert server.backlogs() == (1,) and server.in_service == [first]
        server.apply_rates([1.0])
        self.advance(engine, server, 20.0)
        np.testing.assert_array_equal(ledger.completed_ids, [first, second])


class TestWarmupBoundary:
    def test_completion_exactly_at_warmup_is_measured(self):
        """``completion == warmup`` lands in the first window (the paper
        discards only completions strictly before the warm-up)."""
        ledger = RequestLedger(1)
        monitor = WindowedMonitor(1, warmup=10.0, window=5.0, ledger=ledger)
        before = ledger.append(0, 0.0, 1.0)
        ledger.start_service(before, 1.0)
        ledger.complete(before, 10.0 - 1e-9)  # strictly before warm-up
        boundary = ledger.append(0, 8.0, 1.0)
        ledger.start_service(boundary, 9.0)
        ledger.complete(boundary, 10.0)  # exactly at warm-up
        table = monitor.table
        assert table.first == 0 and table.counts.tolist() == [[1]]
        assert table.means[0, 0] == pytest.approx(1.0)

    def test_scenario_measures_completion_at_warmup(self):
        """End-to-end: a deterministic request completing exactly at the
        warm-up boundary is included in the measured aggregates."""
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0,))
        # One request arrives at t=9 and completes at t=10 == warmup.
        sources = [TraceSource(0, interarrivals=[9.0], sizes=[1.0])]
        cfg = MeasurementConfig(warmup=10.0, horizon=20.0, window=5.0)
        result = Scenario(classes, cfg, sources=sources, seed=0).run()
        assert result.completed_counts == (1,)
        rid = result.ledger.completed_ids[0]
        assert result.ledger.completion_of(rid) == pytest.approx(10.0)
        assert result.per_class_mean_slowdowns() == (pytest.approx(0.0),)
        assert result.measured_ids().tolist() == [rid]


class TestOutOfOrderCompletions:
    def test_monitor_samples_survive_out_of_order_completions(self):
        """Hand-driven ``complete`` calls may log completions out of time
        order; the vectorised finalize must still bucket every completion
        correctly."""
        ledger = RequestLedger(1)
        monitor = WindowedMonitor(1, warmup=0.0, window=10.0, ledger=ledger)
        early = ledger.append(0, 0.0, 1.0)
        late = ledger.append(0, 30.0, 1.0)
        ledger.start_service(late, 34.0)
        ledger.complete(late, 35.0)  # window 3, logged first
        ledger.start_service(early, 1.0)
        ledger.complete(early, 5.0)  # window 0, logged second
        table = monitor.table
        assert table.first == 0 and table.counts.tolist() == [[1], [0], [0], [1]]
        assert table.means[0, 0] == pytest.approx(0.25)
        assert table.means[3, 0] == pytest.approx(4.0)


class TestLedgerPickling:
    def test_pickle_round_trip_is_compact_and_complete(self):
        ledger = RequestLedger(2, capacity=256)
        for i in range(10):
            rid = ledger.append(i % 2, float(i), 1.0)
            if i < 7:
                ledger.start_service(rid, float(i))
                ledger.complete(rid, float(i) + 1.0)
        clone = pickle.loads(pickle.dumps(ledger))
        assert len(clone) == 10 and clone.num_completed == 7
        np.testing.assert_array_equal(clone.completed_ids, ledger.completed_ids)
        np.testing.assert_array_equal(clone.arrival_time, ledger.arrival_time)
        # Only live rows cross the boundary, not the preallocated tail.
        assert clone.capacity == 10
        # Rows in flight when pickled can still complete afterwards.
        clone.start_service(8, 8.0)
        clone.complete(8, 9.0)
        assert clone.num_completed == 8

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_pickle_round_trip_owns_writable_columns(self, protocol):
        """The pickled state holds views of the live rows, not copies; the
        unpickled columns are still equal, writable and the clone's own."""
        ledger = RequestLedger(2, capacity=64)
        for i in range(10):
            rid = ledger.append(i % 2, float(i), 1.0)
            ledger.start_service(rid, float(i))
            ledger.complete(rid, float(i) + 1.0)
        clone = pickle.loads(pickle.dumps(ledger, protocol=protocol))
        state = ledger.__getstate__()
        for name, column in clone.__getstate__().items():
            if name == "num_classes":
                continue
            np.testing.assert_array_equal(column, state[name])
            assert column.flags.writeable
            assert not np.shares_memory(column, state[name])

    def test_pickled_result_keeps_its_views_on_one_ledger(self):
        """The monitor of a result that crossed a process boundary still
        reads the result's own ledger (pickle's memo keeps the one object),
        so the clone's rows are the original's."""
        from repro.distributions import Deterministic

        classes = make_classes(Deterministic(1.0), 0.5, (1.0, 2.0))
        cfg = MeasurementConfig(warmup=10.0, horizon=60.0, window=10.0)
        result = Scenario(classes, cfg, seed=3).run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.monitor.ledger is clone.ledger
        np.testing.assert_array_equal(clone.measured_ids(), result.measured_ids())
        cloned, table = clone.monitor.table, result.monitor.table
        assert cloned.first == table.first
        np.testing.assert_array_equal(cloned.means, table.means)
        np.testing.assert_array_equal(cloned.counts, table.counts)

    def test_slowdowns_and_waiting_times_follow_completion_order(self):
        ledger = RequestLedger(1)
        a = ledger.append(0, 0.0, 1.0)
        b = ledger.append(0, 1.0, 1.0)
        ledger.start_service(b, 2.0)
        ledger.complete(b, 3.0)
        ledger.start_service(a, 3.0)
        ledger.complete(a, 7.0)
        np.testing.assert_array_equal(ledger.completed_ids, [b, a])
        np.testing.assert_allclose(ledger.slowdowns(), [1.0, 0.75])
        np.testing.assert_allclose(ledger.waiting_times(), [1.0, 3.0])


class TestAppendBatch:
    def test_empty_batch_is_a_noop(self):
        ledger = RequestLedger(2)
        rids = ledger.append_batch([], [], [])
        assert rids.shape == (0,)
        assert rids.dtype == np.int64
        assert len(ledger) == 0
        # And does not disturb subsequent scalar appends.
        assert ledger.append(0, 0.0, 1.0) == 0

    def test_batch_growth_across_capacity_boundary(self):
        ledger = RequestLedger(2, capacity=4)
        ledger.append(0, 0.0, 1.0)
        ledger.append(1, 1.0, 1.0)
        ledger.append(0, 2.0, 1.0)
        # Three rows live, capacity four: the batch straddles the boundary
        # and must force (possibly repeated) growth without losing rows.
        k = 50
        rids = ledger.append_batch(
            np.arange(k) % 2, 10.0 + np.arange(k, dtype=float), np.full(k, 0.5)
        )
        np.testing.assert_array_equal(rids, np.arange(3, 3 + k))
        assert len(ledger) == 3 + k
        assert ledger.capacity >= 3 + k
        np.testing.assert_array_equal(ledger.arrival_time[:3], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(ledger.arrival_time[3:], 10.0 + np.arange(k))
        np.testing.assert_array_equal(ledger.class_index[3:], np.arange(k) % 2)

    def test_class_violation_mid_batch_appends_nothing(self):
        ledger = RequestLedger(2)
        ledger.append(0, 0.0, 1.0)
        with pytest.raises(SimulationError, match="no rows were appended"):
            ledger.append_batch([0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], [1.0] * 4)
        with pytest.raises(SimulationError, match="no rows were appended"):
            ledger.append_batch([0, -1], [1.0, 2.0], [1.0, 1.0])
        # The violating batches left no partial rows behind.
        assert len(ledger) == 1
        assert ledger.append(1, 5.0, 1.0) == 1
        np.testing.assert_array_equal(ledger.arrival_time, [0.0, 5.0])

    def test_interleaved_scalar_and_batch_appends_share_rid_sequence(self):
        ledger = RequestLedger(3, capacity=2)
        rid0 = ledger.append(0, 0.0, 1.0)
        batch1 = ledger.append_batch([1, 2], [1.0, 2.0], [1.0, 1.0])
        rid3 = ledger.append(0, 3.0, 1.0)
        batch2 = ledger.append_batch([2], [4.0], [1.0])
        assert rid0 == 0
        np.testing.assert_array_equal(batch1, [1, 2])
        assert rid3 == 3
        np.testing.assert_array_equal(batch2, [4])
        assert len(ledger) == 5
        np.testing.assert_array_equal(ledger.class_index, [0, 1, 2, 0, 2])
        np.testing.assert_array_equal(ledger.arrival_time, np.arange(5, dtype=float))

    def test_batch_shape_mismatch_rejected(self):
        ledger = RequestLedger(2)
        with pytest.raises(SimulationError):
            ledger.append_batch([0, 1], [1.0], [1.0, 1.0])
        assert len(ledger) == 0


class TestBatchLifecycle:
    def test_start_service_batch_validates_before_writing(self):
        ledger = RequestLedger(1)
        rids = ledger.append_batch([0, 0, 0], [0.0, 1.0, 2.0], [1.0] * 3)
        ledger.start_service(1, 1.0)
        with pytest.raises(SimulationError, match="twice"):
            ledger.start_service_batch(rids, np.array([0.0, 1.5, 2.0]))
        # The double-start was detected before any write: rows 0 and 2 stay unstarted.
        assert math.isnan(ledger.service_start_time[0])
        assert math.isnan(ledger.service_start_time[2])

    def test_complete_batch_defers_logging_to_log_completions(self):
        ledger = RequestLedger(1)
        rids = ledger.append_batch([0, 0], [0.0, 1.0], [1.0, 1.0])
        ledger.start_service_batch(rids, np.array([0.0, 1.0]))
        ledger.complete_batch(rids, np.array([2.0, 3.0]))
        assert ledger.num_completed == 0  # unlogged until the caller merges
        ledger.log_completions(rids)
        assert ledger.num_completed == 2
        np.testing.assert_array_equal(ledger.completed_ids, rids)

    def test_log_completions_rejects_time_regressions(self):
        ledger = RequestLedger(1)
        rids = ledger.append_batch([0, 0], [0.0, 1.0], [1.0, 1.0])
        ledger.start_service_batch(rids, np.array([0.0, 1.0]))
        ledger.complete_batch(rids, np.array([5.0, 3.0]))
        with pytest.raises(SimulationError):
            ledger.log_completions(rids)  # 3.0 after 5.0 breaks the order
        ledger.log_completions(rids[::-1].copy())
        np.testing.assert_array_equal(ledger.completed_ids, rids[::-1])


class TestDispositionColumn:
    def test_defaults_to_admitted(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 0.0, 1.0)
        assert ledger.disposition_of(rid) == DISPOSITION_ADMITTED
        rids = ledger.append_batch([0, 0], [1.0, 2.0], [1.0, 1.0])
        assert ledger.disposition[rids].tolist() == [DISPOSITION_ADMITTED] * 2

    def test_append_records_disposition(self):
        ledger = RequestLedger(2)
        shed = ledger.append(0, 0.0, 1.0, disposition=DISPOSITION_SHED)
        degraded = ledger.append(1, 1.0, 1.0, disposition=DISPOSITION_DEGRADED)
        assert ledger.disposition_of(shed) == DISPOSITION_SHED
        assert ledger.disposition_of(degraded) == DISPOSITION_DEGRADED

    def test_append_batch_records_disposition_slice(self):
        ledger = RequestLedger(2)
        dispositions = np.array(
            [DISPOSITION_ADMITTED, DISPOSITION_SHED, DISPOSITION_DEGRADED],
            dtype=np.uint8,
        )
        rids = ledger.append_batch(
            [0, 0, 1], [0.0, 1.0, 2.0], [1.0] * 3, dispositions=dispositions
        )
        np.testing.assert_array_equal(ledger.disposition[rids], dispositions)

    def test_shed_rows_can_never_enter_service(self):
        ledger = RequestLedger(1)
        rid = ledger.append(0, 0.0, 1.0, disposition=DISPOSITION_SHED)
        with pytest.raises(SimulationError, match="shed"):
            ledger.start_service(rid, 1.0)
        rids = ledger.append_batch([0, 0], [1.0, 2.0], [1.0, 1.0])
        mixed = np.array([rid, int(rids[0])])
        with pytest.raises(SimulationError, match="shed"):
            ledger.start_service_batch(mixed, np.array([1.0, 2.0]))
        # The batch guard fired before any write.
        assert math.isnan(ledger.service_start_time[rids[0]])

    def test_disposition_survives_growth(self):
        ledger = RequestLedger(1, capacity=2)
        ledger.append(0, 0.0, 1.0, disposition=DISPOSITION_SHED)
        for i in range(1, 40):
            ledger.append(0, float(i), 1.0)
        assert ledger.disposition_of(0) == DISPOSITION_SHED
        assert int(ledger.disposition[1:].max()) == DISPOSITION_ADMITTED

    def test_disposition_survives_pickling(self):
        ledger = RequestLedger(2)
        ledger.append(0, 0.0, 1.0, disposition=DISPOSITION_SHED)
        ledger.append(1, 1.0, 2.0, disposition=DISPOSITION_DEGRADED)
        ledger.append(0, 2.0, 1.0)
        clone = pickle.loads(pickle.dumps(ledger))
        np.testing.assert_array_equal(clone.disposition, ledger.disposition)

    def test_pickled_state_holds_only_the_row_columns(self):
        ledger = RequestLedger(2)
        ledger.append(0, 0.0, 1.0, disposition=DISPOSITION_SHED)
        assert set(ledger.__getstate__()) == {
            "num_classes",
            "class_index",
            "arrival_time",
            "size",
            "service_start",
            "completion",
            "disposition",
            "order",
        }

    @pytest.mark.parametrize("disposition", [9, -1, DISPOSITION_SHED + 1])
    def test_append_rejects_unknown_disposition(self, disposition):
        ledger = RequestLedger(1)
        with pytest.raises(SimulationError, match="DISPOSITION_"):
            ledger.append(0, 0.0, 1.0, disposition=disposition)
        assert len(ledger) == 0

    @pytest.mark.parametrize(
        "dispositions",
        [
            pytest.param(np.array([DISPOSITION_SHED]), id="broadcast-shape"),
            pytest.param([-1, 7], id="out-of-range"),
            pytest.param([DISPOSITION_ADMITTED, 1.5], id="non-integer"),
            pytest.param([[DISPOSITION_ADMITTED, DISPOSITION_SHED]], id="two-dimensional"),
        ],
    )
    def test_append_batch_rejects_bad_dispositions(self, dispositions):
        """A disposition block must hold one valid code per row; a bad block
        writes no column (no broadcast to every row, no uint8 wrap-around)."""
        ledger = RequestLedger(1)
        ledger.append(0, 0.0, 1.0)
        k = 3 if np.size(dispositions) == 1 else np.size(dispositions)
        arrivals = 1.0 + np.arange(k, dtype=float)
        with pytest.raises(SimulationError, match="no rows were appended"):
            ledger.append_batch(
                np.zeros(k, dtype=np.int64), arrivals, np.ones(k), dispositions=dispositions
            )
        assert len(ledger) == 1
        rids = ledger.append_batch(np.zeros(k, dtype=np.int64), arrivals, np.ones(k))
        assert ledger.disposition[rids].tolist() == [DISPOSITION_ADMITTED] * k


class TestNodeColumn:
    def test_a_single_server_ledger_has_no_node_column(self):
        ledger = RequestLedger(1)
        ledger.append(0, 0.0, 1.0)
        assert ledger.node is None
        assert "node" not in ledger.__getstate__()
        assert pickle.loads(pickle.dumps(ledger)).node is None

    def test_untouched_rows_read_minus_one_across_growth(self):
        ledger = RequestLedger(1, capacity=2)
        ledger.track_nodes(3)
        rids = ledger.append_batch(np.zeros(5, dtype=np.int64), np.arange(5.0), np.ones(5))
        ledger.assign_nodes(rids[[0, 2]], np.array([2, 1]))
        for i in range(5, 40):
            ledger.append(0, float(i), 1.0)
        ledger.assign_nodes(39, 0)
        assert ledger.node.dtype == np.int16
        assert ledger.node[:5].tolist() == [2, -1, 1, -1, -1]
        assert ledger.node[5:39].tolist() == [-1] * 34
        assert ledger.node[39] == 0
        assert not ledger.node.flags.writeable

    def test_node_column_survives_pickling_and_grows_after(self):
        ledger = RequestLedger(1)
        ledger.track_nodes(2)
        rids = ledger.append_batch(np.zeros(3, dtype=np.int64), np.arange(3.0), np.ones(3))
        ledger.assign_nodes(rids, [1, 0, 1])
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.node.tolist() == [1, 0, 1]
        # Two bytes per row: the only growth of a clustered run's payload.
        assert clone.__getstate__()["node"].nbytes == 2 * len(clone)
        clone.append_batch(np.zeros(40, dtype=np.int64), np.arange(3.0, 43.0), np.ones(40))
        assert clone.node.tolist() == [1, 0, 1] + [-1] * 40

    @pytest.mark.parametrize("num_nodes", [0, 2**15])
    def test_track_nodes_rejects_counts_int16_cannot_hold(self, num_nodes):
        with pytest.raises(SimulationError, match="node column"):
            RequestLedger(1).track_nodes(num_nodes)
