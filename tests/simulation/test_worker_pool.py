"""Tests for the persistent replication worker pool."""

import multiprocessing
import sys
import types

import numpy as np
import pytest

from repro.core import PsdSpec
from repro.errors import SimulationError
from repro.experiments.base import ScenarioBuild, pooled_window_ratios
from repro.simulation import (
    MeasurementConfig,
    ReplicationRunner,
    WorkerPool,
    shared_pool,
)
from repro.simulation.ledger import RequestLedger
from tests.conftest import make_classes

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool requires fork-start multiprocessing",
)


@pytest.fixture(scope="module")
def build(request):
    """A picklable build over a short two-class scenario."""
    from repro.distributions import BoundedPareto

    classes = make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.5, (1.0, 2.0))
    cfg = MeasurementConfig(warmup=200.0, horizon=1_500.0, window=200.0)
    return ScenarioBuild(tuple(classes), cfg, PsdSpec.of(1, 2))


class FailingBuild:
    """Picklable build that raises on a chosen replication index."""

    def __init__(self, inner, failing_index):
        self.inner = inner
        self.failing_index = failing_index

    def __call__(self, index, seed):
        if index == self.failing_index:
            raise ValueError(f"boom in replication {index}")
        return self.inner(index, seed)


class TestWorkerPool:
    def test_pool_matches_serial_and_survives_batches(self, build):
        serial = [
            ReplicationRunner(replications=3, base_seed=s, workers=1).run(build)
            for s in (11, 12)
        ]
        pool = WorkerPool(workers=2)
        try:
            pooled = [
                ReplicationRunner(
                    replications=3, base_seed=s, workers=2, pool=pool
                ).run(build)
                for s in (11, 12)
            ]
            assert pool.started
            for a, b in zip(pooled, serial):
                assert a.per_class_slowdowns == b.per_class_slowdowns
                assert a.system_slowdown == b.system_slowdown
                assert [r.generated_counts for r in a.results] == [
                    r.generated_counts for r in b.results
                ]
        finally:
            pool.close()

    def test_build_failure_reports_lowest_index_and_pool_survives(self, build):
        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(SimulationError, match="replication 1 failed"):
                ReplicationRunner(
                    replications=4, base_seed=1, workers=2, pool=pool
                ).run(FailingBuild(build, 1))
            # The pool outlives the failed batch and still computes correctly.
            ok = ReplicationRunner(replications=2, base_seed=2, workers=2, pool=pool).run(build)
            serial = ReplicationRunner(replications=2, base_seed=2, workers=1).run(build)
            assert ok.per_class_slowdowns == serial.per_class_slowdowns
        finally:
            pool.close()

    def test_unpicklable_build_falls_back_to_per_batch_fork(self, build):
        def closure_build(i, seed):  # local function: not picklable
            return build(i, seed)

        pool = WorkerPool(workers=2)
        try:
            summary = ReplicationRunner(
                replications=2, base_seed=3, workers=2, pool=pool
            ).run(closure_build)
            assert not pool.started  # the pool was never engaged
            serial = ReplicationRunner(replications=2, base_seed=3, workers=1).run(closure_build)
            assert summary.per_class_slowdowns == serial.per_class_slowdowns
        finally:
            pool.close()

    def test_deserialize_failure_falls_back(self, build):
        """A build whose module the forked workers never imported still runs.

        The pool forks lazily at the first batch; a module created *after*
        that cannot be unpickled inside the workers, so the runner must
        silently retry the batch on the per-batch fork path (whose children
        inherit the new module).
        """
        pool = WorkerPool(workers=2)
        try:
            first = ReplicationRunner(replications=2, base_seed=4, workers=2, pool=pool).run(build)
            assert pool.started

            module = types.ModuleType("repro_test_late_module")
            exec(
                "class LateBuild:\n"
                "    def __init__(self, inner):\n"
                "        self.inner = inner\n"
                "    def __call__(self, index, seed):\n"
                "        return self.inner(index, seed)\n",
                module.__dict__,
            )
            sys.modules["repro_test_late_module"] = module
            try:
                late = module.LateBuild(build)
                summary = ReplicationRunner(
                    replications=2, base_seed=4, workers=2, pool=pool
                ).run(late)
            finally:
                del sys.modules["repro_test_late_module"]
            assert summary.per_class_slowdowns == first.per_class_slowdowns
            assert not pool.broken  # deserialize fallback is not an error
        finally:
            pool.close()

    def test_closed_pool_degrades_to_per_batch_fork(self, build):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        summary = ReplicationRunner(replications=2, base_seed=5, workers=2, pool=pool).run(build)
        serial = ReplicationRunner(replications=2, base_seed=5, workers=1).run(build)
        assert summary.per_class_slowdowns == serial.per_class_slowdowns
        assert not pool.started  # the closed pool was never revived
        # Driving a closed pool directly is still an error.
        with pytest.raises(SimulationError, match="closed"):
            pool.run_batch(b"", [])

    def test_worker_count_validated(self):
        with pytest.raises(SimulationError):
            WorkerPool(workers=0)


class TestSharedMemoryTransport:
    """Result transport: shared-memory routing must never change results."""

    def serial_summary(self, build):
        return ReplicationRunner(replications=4, base_seed=77, workers=1).run(build)

    def test_forced_shm_path_is_bit_identical(self, build, monkeypatch):
        """With the threshold at zero every result rides shared memory; the
        aggregates must match serial execution bit-for-bit."""
        from repro.simulation import runner as runner_module

        if runner_module._shared_memory is None:
            pytest.skip("multiprocessing.shared_memory unavailable")
        monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", 0)
        pool = WorkerPool(workers=2)
        try:
            shm = ReplicationRunner(replications=4, base_seed=77, workers=2, pool=pool).run(build)
        finally:
            pool.close()
        serial = self.serial_summary(build)
        assert shm.per_class_slowdowns == serial.per_class_slowdowns
        assert shm.system_slowdown == serial.system_slowdown
        assert shm.ratios_to_first == serial.ratios_to_first
        for a, b in zip(shm.results, serial.results):
            assert a.per_class_mean_slowdowns() == b.per_class_mean_slowdowns()
            np.testing.assert_array_equal(a.ledger.completion_time, b.ledger.completion_time)
            # Transported columns stay writable (zero-copy shared-memory
            # mappings, or bytearray copies on the fallback route).
            assert a.ledger.arrival_time.base.flags.writeable

    def test_forced_shm_path_per_batch_fork(self, build, monkeypatch):
        """The per-batch fork path (unpicklable build) also routes via shm."""
        from repro.simulation import runner as runner_module

        if runner_module._shared_memory is None:
            pytest.skip("multiprocessing.shared_memory unavailable")
        monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", 0)

        def closure_build(index, seed):  # closures cannot use the pool
            return build(index, seed)

        shm = ReplicationRunner(replications=3, base_seed=5, workers=2).run(closure_build)
        serial = ReplicationRunner(replications=3, base_seed=5, workers=1).run(build)
        assert shm.per_class_slowdowns == serial.per_class_slowdowns
        assert shm.system_slowdown == serial.system_slowdown

    def test_unavailable_shm_falls_back_inline(self, build, monkeypatch):
        """Without shared memory the inline route produces the same results."""
        from repro.simulation import runner as runner_module

        monkeypatch.setattr(runner_module, "_shared_memory", None)
        monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", 0)
        pool = WorkerPool(workers=2)
        try:
            inline = ReplicationRunner(
                replications=4, base_seed=77, workers=2, pool=pool
            ).run(build)
        finally:
            pool.close()
        serial = self.serial_summary(build)
        assert inline.per_class_slowdowns == serial.per_class_slowdowns
        assert inline.system_slowdown == serial.system_slowdown

    def test_encode_decode_round_trip_in_process(self, build, monkeypatch):
        """encode/decode is the identity on a result, on both routes."""
        from repro.distributions.rng import spawn_seed_sequences
        from repro.simulation import runner as runner_module

        result = build(0, spawn_seed_sequences(123, 1)[0])
        for threshold in (0, 1 << 60):
            monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", threshold)
            clone = runner_module._decode_result(runner_module._encode_result(result))
            assert clone.per_class_mean_slowdowns() == result.per_class_mean_slowdowns()
            np.testing.assert_array_equal(clone.ledger.completed_ids, result.ledger.completed_ids)
            np.testing.assert_array_equal(clone.ledger.size, result.ledger.size)


class TestZeroCopyDecode:
    """Shared-memory results map straight into the parent's ledger columns."""

    @pytest.fixture
    def decoded(self, build, monkeypatch):
        from repro.distributions.rng import spawn_seed_sequences
        from repro.simulation import runner as runner_module

        if runner_module._shared_memory is None:
            pytest.skip("multiprocessing.shared_memory unavailable")
        monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", 0)
        result = build(0, spawn_seed_sequences(123, 1)[0])
        payload = runner_module._encode_result(result)
        assert payload[0] == "shm"
        return result, runner_module._decode_result(payload)

    def test_columns_are_segment_mappings_not_copies(self, decoded):
        original, clone = decoded
        # The parent took segment ownership: a keeper rides the result and
        # its ledger, and the columns alias the mapping instead of owning
        # fresh allocations.
        assert clone._buffer_owner is not None
        assert clone.ledger._buffer_owner is clone._buffer_owner
        column = clone.ledger._arrival_time
        assert not column.flags.owndata
        assert column.flags.writeable
        np.testing.assert_array_equal(clone.ledger.arrival_time, original.ledger.arrival_time)
        # The segment file itself is already unlinked (ownership means the
        # mapping, not the name).
        import os

        name = clone._buffer_owner._segment.name.lstrip("/")
        assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_decoded_ledger_still_grows_and_mutates(self, decoded):
        _, clone = decoded
        ledger = clone.ledger
        before = len(ledger)
        for i in range(before, 2 * before + 4):  # force at least one _grow
            ledger.append(0, 1e9 + i, 1.0)
        assert len(ledger) == 2 * before + 4
        assert ledger.arrival_of(before) == 1e9 + before

    def test_repickle_drops_the_keeper_and_preserves_data(self, decoded):
        import pickle

        original, clone = decoded
        again = pickle.loads(pickle.dumps(clone, protocol=5))
        assert not hasattr(again, "_buffer_owner")
        assert again.ledger._buffer_owner is None
        assert again.per_class_mean_slowdowns() == original.per_class_mean_slowdowns()
        np.testing.assert_array_equal(
            again.ledger.completion_time, original.ledger.completion_time
        )

    def test_inline_route_attaches_no_keeper(self, build, monkeypatch):
        from repro.distributions.rng import spawn_seed_sequences
        from repro.simulation import runner as runner_module

        monkeypatch.setattr(runner_module, "SHM_MIN_BYTES", 1 << 60)
        result = build(0, spawn_seed_sequences(123, 1)[0])
        payload = runner_module._encode_result(result)
        assert payload[0] == "inline"
        clone = runner_module._decode_result(payload)
        assert not hasattr(clone, "_buffer_owner")


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def fresh_shared_pool(self):
        """Reset the process-wide pool: earlier tests may have grown it."""
        import repro.simulation.runner as runner_module

        if runner_module._shared_pool is not None:
            runner_module._shared_pool.close()
            runner_module._shared_pool = None
        yield

    def test_shared_pool_reused_and_grows(self):
        first = shared_pool(1)
        again = shared_pool(1)
        assert again is first
        bigger = shared_pool(2)
        assert bigger is not first
        assert first.closed
        assert shared_pool(1) is bigger  # over-sized pools are kept

    def test_runner_without_pool_uses_shared_pool(self, build):
        pool = shared_pool(2)
        serial = ReplicationRunner(replications=2, base_seed=6, workers=1).run(build)
        parallel = ReplicationRunner(replications=2, base_seed=6, workers=2).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert pool.started


def assert_measurements_equal(summary, serial):
    """The summary statistics and every pooled window-ratio series, bit for bit."""
    assert summary.per_class_slowdowns == serial.per_class_slowdowns
    assert summary.system_slowdown == serial.system_slowdown
    assert summary.ratios_to_first == serial.ratios_to_first
    for numerator, denominator in ((1, 0), (0, 1)):
        np.testing.assert_array_equal(
            pooled_window_ratios(summary, numerator, denominator),
            pooled_window_ratios(serial, numerator, denominator),
        )


class TestMeasurementCrossesTheTransport:
    """Workers measure each replication; the parent only reads the tables."""

    def test_pool_route_matches_serial_without_reading_ledger_rows(self, build, monkeypatch):
        # The serial summary measures its results here, before the patch.
        serial = ReplicationRunner(replications=4, base_seed=31, workers=1).run(build)
        pool = WorkerPool(workers=2)
        try:
            ReplicationRunner(replications=2, base_seed=0, workers=2, pool=pool).run_raw(build)

            def refuse(self, ids=None):
                raise AssertionError("the parent re-read ledger rows")

            # The pool is warm: its workers forked before the patch, so only
            # the parent refuses to compute slowdowns.
            monkeypatch.setattr(RequestLedger, "slowdowns", refuse)
            runner = ReplicationRunner(replications=4, base_seed=31, workers=2, pool=pool)
            pooled = runner.run(build)
            assert_measurements_equal(pooled, serial)
            for result in pooled.results:
                assert result.worker_profile["transport"] != "serial"
                result.monitor.samples()
                result.monitor.per_class_window_means()
        finally:
            pool.close()

    def test_per_batch_fork_route_matches_serial(self, build):
        def closure_build(index, seed):  # closures cannot use the pool
            return build(index, seed)

        forked = ReplicationRunner(replications=3, base_seed=32, workers=2).run(closure_build)
        serial = ReplicationRunner(replications=3, base_seed=32, workers=1).run(build)
        assert_measurements_equal(forked, serial)
