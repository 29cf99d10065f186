"""Tests for utilisation/stability helpers and rate-vector utilities."""

import pytest

from repro.distributions import BoundedPareto, Deterministic
from repro.errors import AllocationError, ParameterError, StabilityError
from repro.queueing import (
    arrival_rate_for_load,
    check_rate_vector,
    check_stability,
    is_stable,
    normalise_rates,
    per_class_utilisations,
    scaled_service_distributions,
    total_utilisation,
    utilisation,
)


class TestUtilisation:
    def test_basic(self):
        assert utilisation(0.5, Deterministic(1.0)) == pytest.approx(0.5)
        assert utilisation(0.5, Deterministic(1.0), rate=0.5) == pytest.approx(1.0)

    def test_total(self):
        dists = [Deterministic(1.0), Deterministic(2.0)]
        assert total_utilisation([0.2, 0.1], dists) == pytest.approx(0.4)

    def test_total_length_mismatch(self):
        with pytest.raises(StabilityError):
            total_utilisation([0.2], [Deterministic(1.0), Deterministic(1.0)])

    def test_is_stable_and_check(self):
        assert is_stable(0.5, Deterministic(1.0))
        assert not is_stable(1.5, Deterministic(1.0))
        assert check_stability(0.5, Deterministic(1.0)) == pytest.approx(0.5)
        with pytest.raises(StabilityError):
            check_stability(1.5, Deterministic(1.0))

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            utilisation(-0.1, Deterministic(1.0))
        with pytest.raises(ParameterError):
            utilisation(0.1, Deterministic(1.0), rate=0.0)


class TestArrivalRateForLoad:
    def test_round_trip(self):
        bp = BoundedPareto.paper_default()
        lam = arrival_rate_for_load(0.7, bp)
        assert utilisation(lam, bp) == pytest.approx(0.7)

    def test_respects_rate(self):
        bp = BoundedPareto.paper_default()
        lam = arrival_rate_for_load(0.5, bp, rate=0.5)
        assert utilisation(lam, bp, rate=0.5) == pytest.approx(0.5)

    def test_rejects_infeasible_load(self):
        with pytest.raises(StabilityError):
            arrival_rate_for_load(1.0, Deterministic(1.0))


class TestRateVectors:
    def test_check_rate_vector_accepts_normalised(self):
        assert check_rate_vector([0.25, 0.75]) == (0.25, 0.75)

    def test_check_rate_vector_rejects_bad_sum(self):
        with pytest.raises(AllocationError):
            check_rate_vector([0.3, 0.3])

    def test_check_rate_vector_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            check_rate_vector([0.0, 1.0])

    def test_check_rate_vector_custom_total(self):
        assert check_rate_vector([1.0, 1.0], total=2.0) == (1.0, 1.0)

    def test_normalise_rates(self):
        assert normalise_rates([2.0, 2.0]) == (0.5, 0.5)
        rates = normalise_rates([1.0, 3.0], total=2.0)
        assert sum(rates) == pytest.approx(2.0)
        assert rates[1] == pytest.approx(1.5)

    def test_scaled_service_distributions(self):
        dists = [BoundedPareto(1.0, 2.0, 2.5), Deterministic(1.0)]
        scaled = scaled_service_distributions(dists, [0.5, 0.25])
        assert scaled[0].mean() == pytest.approx(dists[0].mean() / 0.5)
        assert scaled[1].mean() == pytest.approx(4.0)

    def test_scaled_service_length_mismatch(self):
        with pytest.raises(AllocationError):
            scaled_service_distributions([Deterministic(1.0)], [0.5, 0.5])

    def test_per_class_utilisations(self):
        dists = [Deterministic(1.0), Deterministic(1.0)]
        utils = per_class_utilisations([0.2, 0.3], dists, [0.5, 0.5])
        assert utils == (pytest.approx(0.4), pytest.approx(0.6))

    def test_per_class_utilisations_length_mismatch(self):
        with pytest.raises(AllocationError):
            per_class_utilisations([0.2], [Deterministic(1.0)], [0.5, 0.5])
