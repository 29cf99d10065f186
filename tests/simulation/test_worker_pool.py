"""Tests for the persistent replication worker pool."""

import multiprocessing
import os
import pickle
import sys
import time
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
from tests.invariants import CheckedBuild

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool requires fork-start multiprocessing",
)


@pytest.fixture(scope="module")
def build(request):
    """A picklable build over a short two-class scenario whose every result
    passes the run-end invariants (tests/invariants.py) where it ran."""
    from repro.distributions import BoundedPareto

    classes = make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.5, (1.0, 2.0))
    cfg = MeasurementConfig(warmup=200.0, horizon=1_500.0, window=200.0)
    return CheckedBuild(ScenarioBuild(tuple(classes), cfg, PsdSpec.of(1, 2)))


@pytest.fixture
def fresh_shared_pool():
    """Reset the process-wide pool: earlier tests may have grown it."""
    import repro.simulation.runner as runner_module

    if runner_module._shared_pool is not None:
        runner_module._shared_pool.close()
        runner_module._shared_pool = None


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

    def test_unpicklable_build_is_inherited_by_reforked_workers(self, build):
        def closure_build(i, seed):  # local function: not picklable
            return build(i, seed)

        pool = WorkerPool(workers=2)
        try:
            summary = ReplicationRunner(
                replications=2, base_seed=3, workers=2, pool=pool
            ).run(closure_build)
            assert pool.started and not pool.broken
            serial = ReplicationRunner(replications=2, base_seed=3, workers=1).run(closure_build)
            assert summary.per_class_slowdowns == serial.per_class_slowdowns
            # The re-forked workers still take picklable builds as bytes.
            again = ReplicationRunner(replications=2, base_seed=3, workers=2, pool=pool).run(build)
            assert again.per_class_slowdowns == serial.per_class_slowdowns
        finally:
            pool.close()

    def test_deserialize_failure_reforks_with_the_build_inherited(self, build):
        """A build whose module the forked workers never imported still runs.

        The pool forks lazily at the first batch; a module created *after*
        that cannot be unpickled inside the workers, so the pool must
        silently re-fork its workers with the build inherited.
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
            assert not pool.broken  # a deserialize failure is not an error
        finally:
            pool.close()

    def test_closed_pool_degrades_to_shared_pool(self, build):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        summary = ReplicationRunner(replications=2, base_seed=5, workers=2, pool=pool).run(build)
        serial = ReplicationRunner(replications=2, base_seed=5, workers=1).run(build)
        assert summary.per_class_slowdowns == serial.per_class_slowdowns
        assert not pool.started  # the closed pool was never revived
        # Driving a closed pool directly is still an error.
        with pytest.raises(SimulationError, match="closed"):
            pool.run_batch(build, [])

    def test_successive_closures_each_run_on_their_own_workers(self, build):
        """Each closure re-forks the workers, so none runs a build it inherited
        for an earlier batch."""

        def tagged(tag):
            def closure_build(index, seed):
                result = build(index, seed)
                result.tag = tag
                return result

            return closure_build

        serial = ReplicationRunner(replications=3, base_seed=7, workers=1).run(build)
        pool = WorkerPool(workers=2)
        try:
            for tag in ("first", "second"):
                summary = ReplicationRunner(
                    replications=3, base_seed=7, workers=2, pool=pool
                ).run(tagged(tag))
                assert [r.tag for r in summary.results] == [tag] * 3
                assert_measurements_equal(summary, serial)
            # Picklable builds still cross as bytes to the last re-forked workers.
            again = ReplicationRunner(replications=3, base_seed=7, workers=2, pool=pool).run(build)
            assert not any(hasattr(r, "tag") for r in again.results)
            assert_measurements_equal(again, serial)
        finally:
            pool.close()

    def test_without_fork_runs_serially(self, build, monkeypatch):
        from repro.simulation import runner as runner_module

        serial = ReplicationRunner(replications=2, base_seed=8, workers=1).run(build)
        monkeypatch.setattr(runner_module, "_fork_available", lambda: False)
        with pytest.raises(SimulationError, match="fork"):
            WorkerPool(workers=2)
        degraded = ReplicationRunner(replications=2, base_seed=8, workers=2).run(build)
        assert_measurements_equal(degraded, serial)
        assert all(r.worker_profile["transport"] == "serial" for r in degraded.results)

    def test_worker_count_validated(self):
        with pytest.raises(SimulationError):
            WorkerPool(workers=0)


class TestResultTransport:
    def test_encode_decode_round_trip_in_process(self, build):
        """encode/decode is the identity on a result, and the decoded ledger
        stays writable and growable."""
        from repro.distributions.rng import spawn_seed_sequences
        from repro.simulation import runner as runner_module

        result = build(0, spawn_seed_sequences(123, 1)[0])
        clone = runner_module._decode_result(runner_module._encode_result(result))
        assert clone.per_class_mean_slowdowns() == result.per_class_mean_slowdowns()
        np.testing.assert_array_equal(clone.ledger.completed_ids, result.ledger.completed_ids)
        np.testing.assert_array_equal(clone.ledger.size, result.ledger.size)
        np.testing.assert_array_equal(
            clone.ledger.completion_time, result.ledger.completion_time
        )
        ledger = clone.ledger
        assert ledger._completion.flags.writeable
        before = len(ledger)
        for i in range(before, 2 * before + 4):  # force at least one _grow
            ledger.append(0, 1e9 + i, 1.0)
        assert len(ledger) == 2 * before + 4
        assert ledger.arrival_of(before) == 1e9 + before

    def test_decoded_result_pickles_again_with_its_data(self, build):
        """A result that crossed the pipe can be pickled once more (to cache
        it, say) and keeps its columns and its worker profile."""
        from repro.distributions.rng import spawn_seed_sequences
        from repro.simulation import runner as runner_module

        result = build(0, spawn_seed_sequences(123, 1)[0])
        clone = runner_module._decode_result(runner_module._encode_result(result, 0.5))
        again = pickle.loads(pickle.dumps(clone, protocol=5))
        assert again.per_class_mean_slowdowns() == result.per_class_mean_slowdowns()
        np.testing.assert_array_equal(
            again.ledger.completion_time, result.ledger.completion_time
        )
        np.testing.assert_array_equal(again.ledger.completed_ids, result.ledger.completed_ids)
        assert again.worker_profile == clone.worker_profile


@pytest.mark.usefixtures("fresh_shared_pool")
class TestSharedPool:
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
                assert result.monitor.table.completed == result.ledger.num_completed
                result.monitor.per_class_window_means()
        finally:
            pool.close()

    def test_closure_route_matches_serial(self, build):
        def closure_build(index, seed):  # inherited by re-forked workers
            return build(index, seed)

        forked = ReplicationRunner(replications=3, base_seed=32, workers=2).run(closure_build)
        serial = ReplicationRunner(replications=3, base_seed=32, workers=1).run(build)
        assert_measurements_equal(forked, serial)


def _refuse_to_load():
    raise RuntimeError("this object cannot be unpickled")


class Unloadable:
    """Pickles fine in a worker; raises when the parent unpickles it."""

    def __reduce__(self):
        return (_refuse_to_load, ())


class UnloadableResultBuild:
    """Replication 0's result carries an :class:`Unloadable`."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, index, seed):
        result = self.inner(index, seed)
        if index == 0:
            result.unloadable = Unloadable()
        return result


class ExitingBuild:
    """Kills its worker process on one replication index.

    With a ``marker`` path it does so only until the marker exists (the
    first attempt creates it); without one, on every attempt.
    """

    def __init__(self, inner, index, marker=None):
        self.inner = inner
        self.index = index
        self.marker = marker

    def __call__(self, index, seed):
        if index == self.index and (self.marker is None or not os.path.exists(self.marker)):
            if self.marker is not None:
                open(self.marker, "w").close()
            os._exit(1)
        return self.inner(index, seed)


class LambdaResultBuild:
    """Replication 2's result carries a lambda, which cannot be pickled."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, index, seed):
        result = self.inner(index, seed)
        if index == 2:
            result.callback = lambda: None
        return result


class TestStaleResultsAfterAFailedBatch:
    def test_next_batch_on_the_pool_matches_serial(self, build):
        """A batch that raises while its results are collected leaves its
        other messages queued; the pool must never hand them to a later
        batch."""
        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(SimulationError, match="replication 0's result could not"):
                ReplicationRunner(replications=6, base_seed=40, workers=2, pool=pool).run(
                    UnloadableResultBuild(build)
                )
            assert pool.broken and pool.closed and not pool.started
            second = ReplicationRunner(replications=6, base_seed=41, workers=2, pool=pool).run(
                build
            )
        finally:
            pool.close()
        serial = ReplicationRunner(replications=6, base_seed=41, workers=1).run(build)
        assert_measurements_equal(second, serial)

    def test_interrupt_while_collecting_breaks_the_pool(self, build, monkeypatch):
        """Ctrl-C while results arrive stops the pool's workers at once, and
        the next runner on that pool gets fresh ones."""
        from repro.simulation import runner as runner_module

        pool = WorkerPool(workers=2)
        try:
            ReplicationRunner(replications=2, base_seed=42, workers=2, pool=pool).run(build)
            workers = list(pool._processes)

            def interrupt(payload):
                raise KeyboardInterrupt

            with monkeypatch.context() as patch:
                patch.setattr(runner_module, "_decode_result", interrupt)
                with pytest.raises(KeyboardInterrupt):
                    ReplicationRunner(replications=6, base_seed=43, workers=2, pool=pool).run(
                        build
                    )
            assert pool.broken and pool.closed and not pool.started
            assert not any(process.is_alive() for process in workers)
            second = ReplicationRunner(replications=6, base_seed=43, workers=2, pool=pool).run(
                build
            )
        finally:
            pool.close()
        serial = ReplicationRunner(replications=6, base_seed=43, workers=1).run(build)
        assert_measurements_equal(second, serial)


@pytest.mark.usefixtures("fresh_shared_pool")
class TestFaultInjection:
    def test_worker_killed_once_is_retried_bit_for_bit(self, build, tmp_path):
        marker = tmp_path / "killed-once"
        pool = WorkerPool(workers=2)
        try:
            retried = ReplicationRunner(replications=4, base_seed=50, workers=2, pool=pool).run(
                ExitingBuild(build, 1, str(marker))
            )
            assert marker.exists()
            assert pool.broken and pool.closed  # the retry ran on fresh workers
        finally:
            pool.close()
        serial = ReplicationRunner(replications=4, base_seed=50, workers=1).run(build)
        assert_measurements_equal(retried, serial)
        for a, b in zip(retried.results, serial.results):
            np.testing.assert_array_equal(a.ledger.completion_time, b.ledger.completion_time)

    def test_worker_killed_every_time_names_the_lost_replications(self, build):
        with pytest.raises(SimulationError, match=r"replications \[1, 3\] never reported"):
            ReplicationRunner(replications=4, base_seed=51, workers=2).run(ExitingBuild(build, 1))
        assert not multiprocessing.active_children()

    def test_unpicklable_result_names_index_and_worker_traceback(self, build):
        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(SimulationError, match="replication 2 failed") as raised:
                ReplicationRunner(replications=4, base_seed=52, workers=2, pool=pool).run(
                    LambdaResultBuild(build)
                )
            assert "Traceback" in str(raised.value)
            assert "pickle" in str(raised.value)
            assert not pool.broken  # a build failure leaves the pool usable
        finally:
            pool.close()

    def test_closure_failures_report_the_lowest_index_every_run(self, build):
        def closure_build(index, seed):
            if index == 1:
                time.sleep(0.3)  # replication 2's failure arrives first
                raise ValueError("boom in replication 1")
            if index == 2:
                raise ValueError("boom in replication 2")
            return build(index, seed)

        for _ in range(3):
            with pytest.raises(SimulationError, match="replication 1 failed"):
                ReplicationRunner(replications=4, base_seed=53, workers=2).run(closure_build)
