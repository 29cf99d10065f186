"""Tests for the validation helpers, the error hierarchy and shared types."""

import math

import pytest

from repro.cluster import (
    FleetEvent,
    build_admission,
    build_autoscaler,
    make_cluster,
    parse_fleet_events,
    resolve_capacities,
)
from repro.errors import (
    AllocationError,
    DistributionError,
    ExperimentError,
    ParameterError,
    ReproError,
    SchedulingError,
    SimulationError,
    StabilityError,
)
from repro.scheduling import WeightedFairQueueing
from repro.simulation import RateScalableServers, SharedProcessorServer
from repro.validation import (
    as_float_tuple,
    require_count,
    require_finite,
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_sequence,
    require_probability,
)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_cls in (
            ParameterError,
            DistributionError,
            StabilityError,
            AllocationError,
            SchedulingError,
            SimulationError,
            ExperimentError,
        ):
            assert issubclass(error_cls, ReproError)

    def test_value_errors_where_appropriate(self):
        assert issubclass(ParameterError, ValueError)
        assert issubclass(StabilityError, ValueError)
        assert issubclass(AllocationError, ValueError)

    def test_distribution_error_is_parameter_error(self):
        assert issubclass(DistributionError, ParameterError)

    def test_runtime_errors(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(ExperimentError, RuntimeError)


class TestScalarValidators:
    def test_require_finite(self):
        assert require_finite(1.5, "x") == 1.5
        with pytest.raises(ParameterError):
            require_finite(math.inf, "x")
        with pytest.raises(ParameterError):
            require_finite(math.nan, "x")

    def test_require_positive(self):
        assert require_positive(0.1, "x") == 0.1
        with pytest.raises(ParameterError):
            require_positive(0.0, "x")
        with pytest.raises(ParameterError):
            require_positive(-1.0, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ParameterError):
            require_non_negative(-0.001, "x")

    def test_require_in_range(self):
        assert require_in_range(0.5, "x", 0.0, 1.0) == 0.5
        assert require_in_range(0.0, "x", 0.0, 1.0) == 0.0
        with pytest.raises(ParameterError):
            require_in_range(0.0, "x", 0.0, 1.0, inclusive_low=False)
        with pytest.raises(ParameterError):
            require_in_range(1.5, "x", 0.0, 1.0)

    def test_require_probability(self):
        assert require_probability(1.0, "p") == 1.0
        with pytest.raises(ParameterError):
            require_probability(1.01, "p")

    def test_error_messages_name_the_argument(self):
        with pytest.raises(ParameterError, match="arrival_rate"):
            require_positive(-1.0, "arrival_rate")

    def test_require_count(self):
        assert require_count(2.0, "n") == 2
        assert isinstance(require_count(2.0, "n"), int)
        assert require_count(0, "n") == 0
        for bad in (2.5, -1, math.inf, math.nan):
            with pytest.raises(ParameterError, match="n"):
                require_count(bad, "n")
        with pytest.raises(ParameterError, match="whole number >= 1"):
            require_count(0, "n", 1)


#: ``(factory, policy, token, parameter named in the error)``.
BAD_COUNTS = [
    (build_autoscaler, "target_tracking", "min_nodes=2.7", "min_nodes"),
    (build_autoscaler, "target_tracking", "min_nodes=inf", "min_nodes"),
    (build_autoscaler, "target_tracking", "max_nodes=nan", "max_nodes"),
    (build_autoscaler, "target_tracking", "drain_windows=1.5", "drain_windows"),
    (build_autoscaler, "predictive_ewma", "drain_windows=1.5", "drain_windows"),
    (build_autoscaler, "step_scaling", "bands=0.9:1.5", r"bands\[0\]\.step"),
    (build_admission, "quota", "hint_horizon=2.5", "hint_horizon"),
    (build_admission, "queue_length", "limits=20,2.5", r"limits\[1\]"),
    (build_admission, "queue_length", "limits=inf", r"limits\[0\]"),
]


class TestCountParameters:
    """Count parameters reject fractional and non-finite values instead of
    truncating them or failing with a bare ``OverflowError``."""

    @pytest.mark.parametrize(
        "build, name, token, parameter",
        BAD_COUNTS,
        ids=[f"{name}:{token}" for _, name, token, _ in BAD_COUNTS],
    )
    def test_rejected(self, build, name, token, parameter):
        with pytest.raises(ParameterError, match=parameter):
            build(name, [token])

    def test_whole_floats_accepted(self):
        scaler = build_autoscaler(
            "target_tracking", ["min_nodes=2", "max_nodes=6.0", "drain_windows=3"]
        )
        assert (scaler.min_nodes, scaler.max_nodes, scaler.drain_windows) == (2, 6, 3)
        assert build_autoscaler("step_scaling", ["bands=0.9:2"]).bands == ((0.9, 2),)
        assert build_admission("quota", ["hint_horizon=8"]).hint_horizon == 8
        assert build_admission("queue_length", ["limits=20,20"]).limits == (20, 20)


#: Every entry point that takes a node or processor capacity.
CAPACITY_ENTRY_POINTS = {
    "FleetEvent": lambda cap: FleetEvent(50.0, "set_capacity", 0, capacity=cap),
    "parse_fleet_events": lambda cap: parse_fleet_events(f"set_capacity:0={cap}@50"),
    "make_cluster": lambda cap: make_cluster(2, "round_robin", capacities=(cap, 0.5)),
    "resolve_capacities": lambda cap: resolve_capacities((cap, 1.0), 2),
    "RateScalableServers": lambda cap: RateScalableServers(capacity=cap),
    "SharedProcessorServer": lambda cap: SharedProcessorServer(
        WeightedFairQueueing(1), capacity=cap
    ),
}


class TestCapacities:
    """A capacity must be finite and > 0 wherever it enters: an infinite
    node would give capacity-weighted dispatch NaN weights."""

    @pytest.mark.parametrize("entry", sorted(CAPACITY_ENTRY_POINTS))
    @pytest.mark.parametrize("capacity", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejected(self, entry, capacity):
        with pytest.raises(SimulationError, match="must be finite and > 0"):
            CAPACITY_ENTRY_POINTS[entry](capacity)


class TestSequenceValidators:
    def test_as_float_tuple(self):
        assert as_float_tuple([1, 2], "x") == (1.0, 2.0)
        with pytest.raises(ParameterError):
            as_float_tuple([], "x")
        with pytest.raises(ParameterError):
            as_float_tuple([1.0, math.nan], "x")

    def test_require_positive_sequence(self):
        assert require_positive_sequence([0.5, 1.0], "x") == (0.5, 1.0)
        with pytest.raises(ParameterError):
            require_positive_sequence([0.5, 0.0], "x")
