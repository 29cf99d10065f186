"""Tests for the runner's wall-clock worker profile stamping."""

import multiprocessing
import os
import pickle

import pytest

from repro.core import PsdSpec
from repro.experiments.base import ScenarioBuild
from repro.simulation import MeasurementConfig, ReplicationRunner
from repro.simulation.runner import _decode_result, _encode_result
from tests.conftest import make_classes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel profiling requires fork-start multiprocessing",
)


@pytest.fixture(scope="module")
def build():
    from repro.distributions import BoundedPareto

    classes = make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.5, (1.0, 2.0))
    cfg = MeasurementConfig(warmup=200.0, horizon=1_200.0, window=200.0)
    return ScenarioBuild(tuple(classes), cfg, PsdSpec.of(1, 2))


class TestSerialProfile:
    def test_serial_results_carry_profile(self, build):
        results = ReplicationRunner(replications=2, base_seed=5, workers=1).run_raw(build)
        for result in results:
            profile = result.worker_profile
            assert profile["transport"] == "serial"
            assert profile["worker_pid"] == os.getpid()
            assert profile["build_seconds"] > 0.0

    def test_profile_does_not_change_aggregates(self, build):
        a = ReplicationRunner(replications=2, base_seed=5, workers=1).run(build)
        b = ReplicationRunner(replications=2, base_seed=5, workers=1).run(build)
        assert a.per_class_slowdowns == b.per_class_slowdowns


@needs_fork
class TestParallelProfile:
    def test_parallel_results_carry_transport_profile(self, build):
        results = ReplicationRunner(replications=2, base_seed=5, workers=2).run_raw(build)
        for result in results:
            profile = result.worker_profile
            assert profile["transport"] == "inline"
            assert profile["worker_pid"] != os.getpid()
            assert profile["payload_bytes"] > 0
            assert profile["build_seconds"] > 0.0
            assert profile["encode_seconds"] >= 0.0
            assert profile["decode_seconds"] >= 0.0

    def test_parallel_aggregates_match_serial(self, build):
        serial = ReplicationRunner(replications=3, base_seed=9, workers=1).run(build)
        parallel = ReplicationRunner(replications=3, base_seed=9, workers=2).run(build)
        assert serial.per_class_slowdowns == parallel.per_class_slowdowns
        assert serial.system_slowdown == parallel.system_slowdown


class TestEncodeDecodeRoundTrip:
    def test_meta_rides_payload_tail(self, build):
        import numpy as np

        result = build(0, np.random.SeedSequence(3))
        payload = _encode_result(result, build_seconds=0.125)
        body, meta = payload
        assert body == pickle.dumps(result, protocol=5)
        assert meta["transport"] == "inline"
        assert meta["payload_bytes"] == len(body)
        assert meta["build_seconds"] == 0.125
        assert meta["worker_pid"] == os.getpid()
        decoded = _decode_result(payload)
        assert decoded.per_class_mean_slowdowns() == result.per_class_mean_slowdowns()
        assert decoded.worker_profile["transport"] == "inline"
        assert decoded.worker_profile["decode_seconds"] >= 0.0
