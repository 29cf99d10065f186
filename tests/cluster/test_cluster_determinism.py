"""Cluster determinism: same master seed => same dispatch, same statistics.

The reproducibility guarantees of the single-server stack must survive
clustering: two serial runs from one master seed make bit-identical
dispatch decisions for every policy, and the parallel replication runner
(which exercises the persistent worker pool, since the cluster experiment
build is picklable) aggregates to exactly the serial statistics.
"""

import pytest

from repro.cluster import DISPATCH_POLICIES, make_cluster
from repro.core import PsdSpec
from repro.experiments import ClusterScalingBuild
from repro.simulation import MeasurementConfig, ReplicationRunner, Scenario
from tests.conftest import make_classes

POLICIES = sorted(DISPATCH_POLICIES)

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


@pytest.fixture(scope="module")
def det_classes():
    from repro.distributions import BoundedPareto

    return make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.7, (1.0, 2.0))


CFG = MeasurementConfig(warmup=300.0, horizon=2_500.0, window=300.0)


class TestSerialDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_seed_same_per_node_assignment(self, policy, det_classes):
        spec = PsdSpec.of(1, 2)

        def run():
            server = make_cluster(3, policy, seed=77, record_dispatch=True)
            result = Scenario(det_classes, CFG, server=server, spec=spec, seed=42).run()
            return server, result

        server_a, result_a = run()
        server_b, result_b = run()
        assert server_a.dispatch_log, "no requests were dispatched"
        assert server_a.dispatch_log == server_b.dispatch_log
        assert server_a.dispatch_counts() == server_b.dispatch_counts()
        assert result_a.per_class_mean_slowdowns() == result_b.per_class_mean_slowdowns()
        assert result_a.slowdown_ratios_to_first() == result_b.slowdown_ratios_to_first()
        assert result_a.rate_history == result_b.rate_history

    @pytest.mark.parametrize("policy", POLICIES)
    def test_different_seed_changes_arrivals(self, policy, det_classes):
        spec = PsdSpec.of(1, 2)
        first = Scenario(
            det_classes, CFG, server=make_cluster(3, policy, seed=77), spec=spec, seed=1
        ).run()
        second = Scenario(
            det_classes, CFG, server=make_cluster(3, policy, seed=77), spec=spec, seed=2
        ).run()
        assert first.generated_counts != second.generated_counts or (
            first.per_class_mean_slowdowns() != second.per_class_mean_slowdowns()
        )


class TestParallelDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_workers_do_not_change_aggregates(self, policy, det_classes):
        build = ClusterScalingBuild(
            tuple(det_classes),
            CFG,
            PsdSpec.of(1, 2),
            num_nodes=3,
            policy=policy,
            dispatch_entropy=123,
        )
        serial = ReplicationRunner(replications=3, base_seed=31, workers=1).run(build)
        parallel = ReplicationRunner(replications=3, base_seed=31, workers=2).run(build)
        assert parallel.per_class_slowdowns == serial.per_class_slowdowns
        assert parallel.system_slowdown == serial.system_slowdown
        assert parallel.ratios_to_first == serial.ratios_to_first
        assert [r.generated_counts for r in parallel.results] == [
            r.generated_counts for r in serial.results
        ]


class TestClusterDifferentiation:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_feedback_loop_holds_ratios_on_cluster(self, policy, det_classes):
        """N homogeneous nodes + the feedback controller keep the 2x target.

        Replication-averaged, moderate-tail workload: the achieved class-2 /
        class-1 slowdown ratio stays in a band around the target of 2 for
        every dispatch policy (the loose bound matches what short in-test
        horizons support; the cluster bench asserts the tight band).
        """
        cfg = MeasurementConfig(warmup=500.0, horizon=5_000.0, window=500.0)
        build = ClusterScalingBuild(
            tuple(det_classes),
            cfg,
            PsdSpec.of(1, 2),
            num_nodes=2,
            policy=policy,
            dispatch_entropy=7,
        )
        summary = ReplicationRunner(replications=3, base_seed=5, workers=1).run(build)
        ratio = summary.ratio_of_mean_slowdowns[1]
        assert 1.2 < ratio < 3.2, f"{policy}: ratio {ratio}"
