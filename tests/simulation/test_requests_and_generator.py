"""Tests for request lifecycles in the ledger and for request sources."""

import math

import numpy as np
import pytest

from repro.distributions import BoundedPareto, Deterministic
from repro.errors import ParameterError, SimulationError
from repro.simulation import (
    DeterministicArrivals,
    PoissonArrivals,
    RequestLedger,
    RequestSource,
    TraceSource,
    sources_from_classes,
)
from repro.types import TrafficClass


def request_row(arrival, size, class_index=0):
    """A one-row ledger holding a fresh arrival; returns (ledger, row id)."""
    ledger = RequestLedger(1)
    return ledger, ledger.append(class_index, arrival, size)


class TestRequestLifecycle:
    def test_normal_lifecycle_metrics(self):
        ledger, rid = request_row(10.0, 2.0)
        ledger.start_service(rid, 14.0)
        ledger.complete(rid, 18.0)
        assert ledger.is_complete(rid)
        assert ledger.waiting_times()[0] == pytest.approx(4.0)
        assert ledger.completion_of(rid) - ledger.start_of(rid) == pytest.approx(4.0)
        assert ledger.completion_of(rid) - ledger.arrival_of(rid) == pytest.approx(8.0)
        # Paper slowdown: delay over actual service duration.
        assert ledger.slowdowns()[0] == pytest.approx(1.0)

    def test_zero_wait_zero_slowdown(self):
        ledger, rid = request_row(5.0, 1.0)
        ledger.start_service(rid, 5.0)
        ledger.complete(rid, 6.0)
        assert ledger.slowdowns()[0] == 0.0

    def test_cannot_start_twice(self):
        ledger, rid = request_row(0.0, 1.0)
        ledger.start_service(rid, 1.0)
        with pytest.raises(SimulationError):
            ledger.start_service(rid, 2.0)

    def test_cannot_complete_without_start(self):
        ledger, rid = request_row(0.0, 1.0)
        with pytest.raises(SimulationError):
            ledger.complete(rid, 2.0)

    def test_cannot_complete_twice(self):
        ledger, rid = request_row(0.0, 1.0)
        ledger.start_service(rid, 0.0)
        ledger.complete(rid, 1.0)
        with pytest.raises(SimulationError):
            ledger.complete(rid, 2.0)

    def test_cannot_start_before_arrival(self):
        ledger, rid = request_row(5.0, 1.0)
        with pytest.raises(SimulationError):
            ledger.start_service(rid, 4.0)

    def test_incomplete_request_flags(self):
        ledger, rid = request_row(0.0, 1.0)
        assert not ledger.is_complete(rid)
        assert math.isnan(ledger.completion_of(rid))
        assert ledger.completed_ids.size == 0


class TestArrivalProcesses:
    def test_poisson_mean_interarrival(self, rng):
        p = PoissonArrivals(rate=2.0)
        gaps = [p.next_interarrival(rng) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.03)

    def test_zero_rate_never_arrives(self, rng):
        assert math.isinf(PoissonArrivals(0.0).next_interarrival(rng))

    def test_deterministic_arrivals(self, rng):
        d = DeterministicArrivals(0.25)
        assert d.next_interarrival(rng) == 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PoissonArrivals(-1.0)
        with pytest.raises(ParameterError):
            DeterministicArrivals(0.0)


class TestRequestSource:
    def test_sizes_come_from_distribution(self, rng):
        source = RequestSource(0, PoissonArrivals(1.0), Deterministic(3.0), rng)
        assert source.next_size() == 3.0

    def test_sources_from_classes(self, rng):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        classes = (
            TrafficClass("a", 1.0, bp, 1.0),
            TrafficClass("b", 2.0, Deterministic(1.0), 2.0),
        )
        sources = sources_from_classes(
            classes, [np.random.default_rng(1), np.random.default_rng(2)]
        )
        assert len(sources) == 2
        assert sources[0].class_index == 0
        assert sources[1].next_size() == 1.0

    def test_sources_from_classes_length_mismatch(self, rng):
        bp = BoundedPareto(0.1, 10.0, 1.5)
        with pytest.raises(ParameterError):
            sources_from_classes((TrafficClass("a", 1.0, bp, 1.0),), [])

    def test_negative_class_index_rejected(self, rng):
        with pytest.raises(ParameterError):
            RequestSource(-1, PoissonArrivals(1.0), Deterministic(1.0), rng)


class TestTraceSource:
    def test_replays_in_order(self):
        source = TraceSource(0, interarrivals=[1.0, 2.0], sizes=[0.5, 0.7])
        assert source.next_interarrival() == 1.0
        assert source.next_size() == 0.5
        assert source.next_interarrival() == 2.0
        assert source.next_size() == 0.7

    def test_exhaustion_returns_infinite_gap(self):
        source = TraceSource(0, interarrivals=[1.0], sizes=[0.5])
        source.next_interarrival()
        source.next_size()
        assert math.isinf(source.next_interarrival())
        with pytest.raises(ParameterError):
            source.next_size()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            TraceSource(0, interarrivals=[1.0], sizes=[0.5, 0.6])

    def test_numpy_arrays_are_used_without_copy(self):
        gaps = np.array([1.0, 2.0, 3.0])
        sizes = np.array([0.5, 0.6, 0.7])
        source = TraceSource(0, gaps, sizes)
        assert source._interarrivals is gaps and source._sizes is sizes
        assert len(source) == 3 and source.remaining == 3
        assert source.next_interarrival() == 1.0
        assert source.next_size() == 0.5
        assert source.remaining == 2

    def test_zero_gaps_are_accepted(self):
        source = TraceSource(0, interarrivals=[0.0, 0.0], sizes=[1.0, 1.0])
        assert source.next_interarrival() == 0.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ParameterError, match="interarrivals"):
            TraceSource(0, interarrivals=[-1.0], sizes=[1.0])
        with pytest.raises(ParameterError, match="interarrivals"):
            TraceSource(0, interarrivals=[float("nan")], sizes=[1.0])
        with pytest.raises(ParameterError, match="sizes"):
            TraceSource(0, interarrivals=[1.0], sizes=[0.0])
        with pytest.raises(ParameterError, match="one-dimensional"):
            TraceSource(0, interarrivals=np.ones((2, 2)), sizes=np.ones((2, 2)))
        with pytest.raises(ParameterError, match="class_index"):
            TraceSource(-1, interarrivals=[1.0], sizes=[1.0])
