"""Determinism matrix for churn runs.

Three guarantees, per dispatch policy:

* two serial runs of the same churn schedule from one master seed make
  bit-identical dispatch decisions, rate histories and statistics;
* ``workers=N`` replication of a churn build yields the identical node
  columns, rate histories and aggregates as serial execution (the fleet events
  replay deterministically inside each forked worker);
* a cluster built with the *empty* ``FleetSchedule`` is bit-identical to a
  cluster built without one — the pre-fleet (PR 4) behaviour is preserved
  exactly, not approximately.
"""

import numpy as np
import pytest

from repro.cluster import DISPATCH_POLICIES, FleetSchedule, make_cluster, parse_fleet_events
from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild
from repro.simulation import MeasurementConfig, ReplicationRunner, Scenario
from tests.conftest import make_classes

POLICIES = sorted(DISPATCH_POLICIES)

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")

CFG = MeasurementConfig(warmup=300.0, horizon=2_500.0, window=300.0)

#: Kill node 0 mid-measurement, restore it two windows later, and degrade
#: node 2 near the end — every event class in one timeline.
CHURN = parse_fleet_events("leave:0@900 join:0@1500 set_capacity:2=0.2@1800")


@pytest.fixture(scope="module")
def det_classes():
    from repro.distributions import BoundedPareto

    return make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.7, (1.0, 2.0))


def churn_build(det_classes, policy, *, fleet=CHURN):
    return ClusterScalingBuild(
        tuple(det_classes),
        CFG,
        PsdSpec.of(1, 2),
        num_nodes=3,
        policy=policy,
        dispatch_entropy=123,
        fleet=fleet,
    )


class TestSerialChurnDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_seed_same_churn_run(self, policy, det_classes):
        spec = PsdSpec.of(1, 2)

        def run():
            server = make_cluster(3, policy, seed=77, fleet=CHURN)
            result = Scenario(det_classes, CFG, server=server, spec=spec, seed=42).run()
            return server, result

        server_a, result_a = run()
        server_b, result_b = run()
        assert (server_a.ledger.node >= 0).any(), "no requests were dispatched"
        assert np.array_equal(server_a.ledger.node, server_b.ledger.node)
        assert result_a.ledger is server_a.ledger
        assert result_a.rate_history == result_b.rate_history
        assert result_a.per_class_mean_slowdowns() == result_b.per_class_mean_slowdowns()
        assert result_a.fleet_timeline == result_b.fleet_timeline
        # The schedule actually did something: node 0 went out and came back.
        states = [entry[1] for entry in result_a.fleet_timeline]
        assert any(state[0] != "live" for state in states)
        assert states[-1][0] == "live"


class TestParallelChurnDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_workers_do_not_change_churn_runs(self, policy, det_classes):
        build = churn_build(det_classes, policy)
        serial = ReplicationRunner(replications=3, base_seed=31, workers=1).run(build)
        parallel = ReplicationRunner(replications=3, base_seed=31, workers=2).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        assert parallel.ratios_to_first == serial.ratios_to_first
        for parallel_result, serial_result in zip(parallel.results, serial.results):
            assert np.array_equal(parallel_result.ledger.node, serial_result.ledger.node)
            assert parallel_result.rate_history == serial_result.rate_history
            assert parallel_result.fleet_timeline == serial_result.fleet_timeline
            assert parallel_result.generated_counts == serial_result.generated_counts


class TestEmptySchedulePreFleetBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_schedule_is_bit_identical_to_no_schedule(self, policy, det_classes):
        spec = PsdSpec.of(1, 2)

        def run(fleet):
            server = make_cluster(3, policy, seed=7, fleet=fleet)
            result = Scenario(det_classes, CFG, server=server, spec=spec, seed=9).run()
            return server, result

        bare_server, bare = run(None)
        empty_server, empty = run(FleetSchedule())
        assert np.array_equal(empty_server.ledger.node, bare_server.ledger.node)
        assert empty_server.dispatch_counts() == bare_server.dispatch_counts()
        assert empty.rate_history == bare.rate_history
        assert empty.per_class_mean_slowdowns() == bare.per_class_mean_slowdowns()
        assert empty.generated_counts == bare.generated_counts
        np.testing.assert_array_equal(empty.monitor.table.means, bare.monitor.table.means)

    def test_empty_schedule_in_replicated_build(self, det_classes):
        bare = ReplicationRunner(replications=2, base_seed=5, workers=1).run(
            churn_build(det_classes, "jsq", fleet=None)
        )
        empty = ReplicationRunner(replications=2, base_seed=5, workers=1).run(
            churn_build(det_classes, "jsq", fleet=FleetSchedule())
        )
        assert empty.per_class_slowdowns == bare.per_class_slowdowns
        assert empty.system_slowdown == bare.system_slowdown
        for empty_result, bare_result in zip(empty.results, bare.results):
            assert np.array_equal(empty_result.ledger.node, bare_result.ledger.node)
