"""Tests for the per-figure experiment drivers.

To keep the suite fast these use a tiny custom configuration (short horizon,
one or two loads, 2 replications) — enough to check structure, qualitative
shape and bookkeeping, not statistical accuracy (the benches handle that).
"""

import numpy as np
import pytest

from repro.cluster import FleetSchedule
from repro.core import PsdSpec
from repro.errors import ExperimentError, ParameterError
from repro.experiments import (
    AutoscaleBuild,
    ClusterScalingBuild,
    ExperimentConfig,
    default_patterns,
    figure2,
    figure4,
    figure7,
    figure9,
    figure11,
    figure12,
    run_cluster_scaling,
    run_individual_requests,
    run_ratio_percentiles,
)
from repro.simulation import MeasurementConfig, PoissonArrivals, RequestSource, TraceSource


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        measurement=MeasurementConfig(
            warmup=400.0, horizon=3_000.0, window=400.0, replications=2
        ),
        load_grid=(0.4, 0.8),
        name="tiny",
    )


@pytest.fixture(scope="module")
def tiny_moderate_config(tiny_config) -> ExperimentConfig:
    """Tiny config on a lighter-tailed workload for faster convergence."""
    return tiny_config.with_bounds(upper_bound=10.0)


class TestEffectivenessDrivers:
    def test_figure2_structure(self, tiny_moderate_config):
        result = figure2(tiny_moderate_config)
        assert result.experiment_id == "fig2"
        assert len(result.rows) == 2
        assert set(result.columns).issuperset(
            {"load", "simulated_1", "expected_1", "simulated_2", "expected_2"}
        )
        # Expected slowdowns grow with load and respect the 2x spacing.
        expected_first = result.column("expected_1")
        assert expected_first[1] > expected_first[0]
        for row in result.rows:
            assert row["expected_2"] / row["expected_1"] == pytest.approx(2.0)
            assert row["simulated_1"] > 0
            assert row["worst_rel_error"] >= 0

    def test_figure4_three_classes(self, tiny_moderate_config):
        result = figure4(tiny_moderate_config)
        assert "simulated_3" in result.columns
        for row in result.rows:
            assert row["expected_3"] / row["expected_1"] == pytest.approx(3.0)


class TestPredictabilityDrivers:
    def test_ratio_percentiles_structure(self, tiny_moderate_config):
        result = run_ratio_percentiles(
            [(1.0, 2.0)],
            tiny_moderate_config,
            experiment_id="fig5-test",
            title="test",
        )
        assert len(result.rows) == len(tiny_moderate_config.load_grid)
        for row in result.rows:
            assert row["target_ratio"] == pytest.approx(2.0)
            assert row["p5"] <= row["median"] <= row["p95"]
            assert row["windows"] > 0

    def test_individual_requests_driver(self, tiny_moderate_config):
        result = run_individual_requests(
            0.5,
            tiny_moderate_config,
            experiment_id="fig7-test",
            title="test",
            span=400.0,
        )
        assert len(result.rows) == 2
        assert all(row["requests"] >= 0 for row in result.rows)
        assert any("short" in note or "span" in note for note in result.notes)

    def test_figure7_uses_50_percent_load(self, tiny_moderate_config):
        result = figure7(tiny_moderate_config)
        assert result.parameters["load"] == 0.5


class TestControllabilityDrivers:
    def test_figure9_structure(self, tiny_moderate_config):
        result = figure9(tiny_moderate_config)
        # 3 delta vectors x 2 loads x 1 non-reference class each.
        assert len(result.rows) == 6
        targets = sorted({row["target_ratio"] for row in result.rows})
        assert targets == [2.0, 4.0, 8.0]
        for row in result.rows:
            assert row["achieved_ratio"] > 0
            assert row["rel_error"] >= 0


class TestClusterDriver:
    def test_cluster_scaling_structure(self, tiny_moderate_config):
        from repro.experiments.cluster import HETERO_CELLS

        config = tiny_moderate_config.with_cluster(
            nodes=(1, 2),
            policies=("round_robin", "jsq"),
            capacity_mixes=("uniform", "2:1"),
        )
        result = run_cluster_scaling(config)
        assert result.experiment_id == "cluster"
        # One baseline row, the nodes x policies sweep, and one block of
        # dispatch/partitioner pairings per non-uniform capacity mix.
        assert len(result.rows) == 1 + 2 * 2 + len(HETERO_CELLS)
        assert result.rows[0]["nodes"] == "single"
        assert result.parameters["load"] == max(config.load_grid)
        assert result.parameters["capacity_mixes"] == ("uniform", "2:1")
        for row in result.rows:
            assert row["slowdown_1"] > 0
            assert row["ratio_2"] > 0
            assert row["worst_rel_error"] >= 0
        # Single-node cells: clustering one node must not distort fidelity
        # beyond sampling noise (same seeds, same arrivals -> tiny error).
        single_node_rows = [row for row in result.rows if row["nodes"] == 1]
        for row in single_node_rows:
            assert row["worst_rel_error"] == pytest.approx(0.0, abs=1e-9)
        # Heterogeneous rows carry their mix and partitioner labels; the
        # homogeneous sweep stays labelled uniform.
        hetero_rows = [row for row in result.rows if row["mix"] != "uniform"]
        assert [(r["policy"], r["partitioner"]) for r in hetero_rows] == list(HETERO_CELLS)
        assert all(row["mix"] == "2:1" and row["nodes"] == 2 for row in hetero_rows)

    def test_cluster_explicit_capacities_fix_fleet_size(self, tiny_moderate_config):
        from repro.experiments.cluster import HETERO_CELLS

        config = tiny_moderate_config.with_cluster(
            nodes=(1,),
            policies=("round_robin",),
            capacity_mixes=((3.0, 1.0, 1.0),),
        )
        result = run_cluster_scaling(config)
        hetero_rows = [row for row in result.rows if row["mix"] != "uniform"]
        assert len(hetero_rows) == len(HETERO_CELLS)
        assert all(row["nodes"] == 3 for row in hetero_rows)
        assert all(row["mix"] == "3:1:1" for row in hetero_rows)

    def test_cluster_grid_validation(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            ExperimentConfig(cluster_nodes=())
        with pytest.raises(ExperimentError):
            ExperimentConfig(cluster_nodes=(0,))
        with pytest.raises(ExperimentError):
            ExperimentConfig(dispatch_policies=())
        with pytest.raises(ExperimentError, match="unknown dispatch"):
            ExperimentConfig(dispatch_policies=("jsq_typo",))
        with pytest.raises(ExperimentError, match="unknown capacity mix"):
            ExperimentConfig(capacity_mixes=("3:2:1",))
        with pytest.raises(ExperimentError, match="strictly positive"):
            ExperimentConfig(capacity_mixes=((2.0, 0.0),))
        with pytest.raises(ExperimentError, match="strictly positive"):
            ExperimentConfig(capacity_mixes=((),))
        # The default sweep always covers every registered policy.
        from repro.cluster import DISPATCH_POLICIES

        assert ExperimentConfig().dispatch_policies == tuple(DISPATCH_POLICIES)


class TestClusterScalingBuild:
    """The one build of every feedback-controlled cell, its source rule included."""

    @pytest.fixture
    def parts(self, tiny_config):
        spec = PsdSpec.of(1, 2)
        classes = tiny_config.classes_for_load(0.5, spec.deltas)
        return tuple(classes), tiny_config.scaled_measurement(), spec

    def test_no_patterns_draws_poisson_streams(self, parts):
        build = ClusterScalingBuild(*parts, num_nodes=2)
        sources = build.scenario(0, np.random.SeedSequence(1)).sources
        assert len(sources) == 2
        for source in sources:
            assert type(source) is RequestSource
            assert isinstance(source.arrivals, PoissonArrivals)

    @pytest.mark.parametrize("shaped", [False, True], ids=["empty", "default"])
    def test_pattern_tuple_replays_traces(self, parts, shaped):
        patterns = default_patterns(parts[1]) if shaped else ()
        build = ClusterScalingBuild(*parts, num_nodes=2, patterns=patterns)
        sources = build.scenario(0, np.random.SeedSequence(1)).sources
        assert len(sources) == 2
        assert all(type(source) is TraceSource for source in sources)

    def test_fleet_and_initial_nodes_are_exclusive(self, parts):
        with pytest.raises(ParameterError, match="fleet or initial_nodes"):
            ClusterScalingBuild(
                *parts, num_nodes=2, fleet=FleetSchedule(initial_down=(1,)), initial_nodes=1
            )

    def test_autoscale_build_is_the_same_class(self):
        assert AutoscaleBuild is ClusterScalingBuild


class TestSensitivityDrivers:
    def test_figure11_slowdown_decreases_with_alpha(self, tiny_config):
        cfg = tiny_config.with_loads((0.6,))
        result = figure11(
            ExperimentConfig(
                measurement=cfg.measurement,
                load_grid=cfg.load_grid,
                upper_bound=10.0,
                name="quick",
            )
        )
        alphas = result.column("alpha")
        expected = result.column("expected_1")
        assert alphas == sorted(alphas)
        assert expected == sorted(expected, reverse=True)

    def test_figure12_expected_slowdown_increases_with_bound(self, tiny_config):
        result = figure12(
            ExperimentConfig(
                measurement=tiny_config.measurement,
                load_grid=(0.6,),
                name="quick",
            )
        )
        bounds = result.column("upper_bound")
        expected = result.column("expected_1")
        assert bounds == sorted(bounds)
        assert expected == sorted(expected)


class TestOverloadDriver:
    def test_overload_structure_and_shape(self, tiny_moderate_config):
        from repro.experiments.overload import run_overload

        result = run_overload(tiny_moderate_config, loads=(1.2,))
        assert result.experiment_id == "overload"
        # One quota row and one admission-blind row per load.
        assert [row["admission"] for row in result.rows] == ["quota", "none"]
        assert set(result.columns).issuperset(
            {"load", "admission", "shed_fraction", "unfinished", "system_slowdown"}
        )
        quota, blind = result.rows
        # The defended cluster sheds; the blind one admits everything and
        # stalls with far more unfinished work.
        assert 0.0 < quota["shed_fraction"] < 0.5
        assert blind["shed_fraction"] == 0.0
        assert blind["unfinished"] > quota["unfinished"]

    def test_overload_honours_configured_admission(self, tiny_moderate_config):
        from repro.experiments.overload import run_overload

        config = tiny_moderate_config.with_admission(
            "load_threshold", ("thresholds=0.3,0.6",)
        )
        result = run_overload(config, loads=(1.05,))
        assert result.parameters["admission"] == "load_threshold"
        assert [row["admission"] for row in result.rows] == ["load_threshold", "none"]
        assert result.rows[0]["shed_fraction"] > 0.0


class TestAdmissionConfig:
    def test_admission_args_require_policy(self):
        with pytest.raises(ExperimentError, match="without an admission policy"):
            ExperimentConfig(admission_args=("quota_shares=0.4",))

    def test_bad_admission_policy_rejected(self):
        with pytest.raises(ExperimentError, match="bad admission policy"):
            ExperimentConfig(admission="nope")
        with pytest.raises(ExperimentError, match="bad admission policy"):
            ExperimentConfig(admission="quota", admission_args=("quota_shares=1.5",))

    def test_build_admission_policy_fresh_instances(self):
        from repro.cluster import AdmissionController

        config = ExperimentConfig(admission="quota", admission_args=("quota_shares=0.3,0.3",))
        first = config.build_admission_policy()
        second = config.build_admission_policy()
        assert isinstance(first, AdmissionController)
        assert first is not second
        assert ExperimentConfig().build_admission_policy() is None

    def test_with_admission_clears_args_with_policy(self):
        config = ExperimentConfig(admission="quota", admission_args=("drain_factor=0.2",))
        cleared = config.with_admission(None)
        assert cleared.admission is None
        assert cleared.admission_args == ()
        # args=None keeps the existing tokens (same-policy retune).
        kept = config.with_admission("quota")
        assert kept.admission_args == config.admission_args
        # ... but tokens incompatible with the new policy still fail loudly.
        with pytest.raises(ExperimentError, match="bad admission policy"):
            config.with_admission("always")


class TestAutoscaleDriver:
    def test_autoscale_structure_and_shape(self, tiny_moderate_config):
        from repro.experiments.autoscale import run_autoscale

        result = run_autoscale(tiny_moderate_config)
        assert result.experiment_id == "autoscale"
        from repro.cluster import AUTOSCALERS

        assert [row["autoscaler"] for row in result.rows] == ["static", *AUTOSCALERS]
        assert set(result.columns).issuperset(
            {"autoscaler", "node_hours", "saving", "scale_out", "scale_in"}
        )
        static = result.rows[0]
        # The static peak fleet never scales and pays full freight.
        assert static["scale_out"] == static["scale_in"] == 0
        assert static["saving"] == 0.0
        for row in result.rows[1:]:
            # Every scaler acted (the half fleet must grow under load) and
            # undercut the static bill.
            assert row["scale_out"] > 0
            assert row["node_hours"] < static["node_hours"]
            assert 0.0 < row["saving"] < 1.0

    def test_autoscale_honours_configured_policy(self, tiny_moderate_config):
        from repro.experiments.autoscale import run_autoscale

        config = tiny_moderate_config.with_autoscaler(
            "step_scaling", ("in_threshold=0.5",)
        )
        result = run_autoscale(config)
        assert result.parameters["autoscalers"] == ("step_scaling",)
        assert [row["autoscaler"] for row in result.rows] == ["static", "step_scaling"]


class TestAutoscalerConfig:
    def test_autoscaler_args_require_policy(self):
        with pytest.raises(ExperimentError, match="without an autoscaler policy"):
            ExperimentConfig(autoscaler_args=("target=0.8",))

    def test_bad_autoscaler_policy_rejected(self):
        with pytest.raises(ExperimentError, match="bad autoscaler policy"):
            ExperimentConfig(autoscaler="nope")
        with pytest.raises(ExperimentError, match="bad autoscaler policy"):
            ExperimentConfig(autoscaler="target_tracking", autoscaler_args=("target=0",))

    def test_build_autoscaler_policy_fresh_instances(self):
        from repro.cluster import TargetTracking

        config = ExperimentConfig(autoscaler="target_tracking", autoscaler_args=("target=0.8",))
        first = config.build_autoscaler_policy()
        second = config.build_autoscaler_policy()
        assert isinstance(first, TargetTracking)
        assert first is not second
        assert first.target == 0.8
        assert ExperimentConfig().build_autoscaler_policy() is None

    def test_with_autoscaler_clears_args_with_policy(self):
        config = ExperimentConfig(
            autoscaler="target_tracking", autoscaler_args=("target=0.8",)
        )
        cleared = config.with_autoscaler(None)
        assert cleared.autoscaler is None
        assert cleared.autoscaler_args == ()
        kept = config.with_autoscaler("target_tracking")
        assert kept.autoscaler_args == config.autoscaler_args
        # ... but tokens incompatible with the new policy still fail loudly.
        with pytest.raises(ExperimentError, match="bad autoscaler policy"):
            config.with_autoscaler("step_scaling")
