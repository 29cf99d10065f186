"""Tests for the M/G_B/1 closed forms: Lemma 1, Lemma 2, Theorem 1."""

import pytest

from repro.distributions import BoundedPareto, Deterministic
from repro.errors import ParameterError, StabilityError
from repro.queueing import (
    MG1Queue,
    MGB1Queue,
    lemma1_expected_slowdown,
    lemma2_scaled_moments,
    slowdown_constant,
    theorem1_task_server_slowdown,
)


@pytest.fixture
def bp() -> BoundedPareto:
    return BoundedPareto.paper_default()


class TestLemma1:
    def test_matches_generic_mg1(self, bp):
        lam = 1.0
        assert lemma1_expected_slowdown(lam, bp) == pytest.approx(MG1Queue(lam, bp).slowdown())

    def test_explicit_formula(self, bp):
        lam = 1.5
        rho = lam * bp.mean()
        explicit = lam * bp.second_moment() * bp.mean_inverse() / (2.0 * (1.0 - rho))
        assert lemma1_expected_slowdown(lam, bp) == pytest.approx(explicit)

    def test_zero_arrival_rate(self, bp):
        assert lemma1_expected_slowdown(0.0, bp) == 0.0

    def test_unstable_raises(self, bp):
        with pytest.raises(StabilityError):
            lemma1_expected_slowdown(1.0 / bp.mean(), bp)

    def test_monotone_in_arrival_rate(self, bp):
        rates = [0.5, 1.0, 2.0, 3.0]
        slowdowns = [lemma1_expected_slowdown(r, bp) for r in rates]
        assert slowdowns == sorted(slowdowns)


class TestLemma2:
    def test_scaled_moments(self, bp):
        rate = 0.35
        moments = lemma2_scaled_moments(bp, rate)
        assert moments["mean"] == pytest.approx(bp.mean() / rate)
        assert moments["second_moment"] == pytest.approx(bp.second_moment() / rate**2)
        assert moments["mean_inverse"] == pytest.approx(rate * bp.mean_inverse())

    def test_rejects_zero_rate(self, bp):
        with pytest.raises(ParameterError):
            lemma2_scaled_moments(bp, 0.0)


class TestTheorem1:
    def test_reduces_to_lemma1_at_full_rate(self, bp):
        lam = 1.2
        assert theorem1_task_server_slowdown(lam, bp, 1.0) == pytest.approx(
            lemma1_expected_slowdown(lam, bp)
        )

    def test_equals_scaled_queue_slowdown(self, bp):
        """Theorem 1 must equal Lemma 1 applied to the scaled distribution."""
        lam, rate = 0.8, 0.45
        via_theorem = theorem1_task_server_slowdown(lam, bp, rate)
        via_scaling = lemma1_expected_slowdown(lam, bp.scaled(rate))
        assert via_theorem == pytest.approx(via_scaling)

    def test_explicit_formula(self, bp):
        lam, rate = 0.6, 0.5
        explicit = (lam * bp.second_moment() * bp.mean_inverse() / (2.0 * (rate - lam * bp.mean())))
        assert theorem1_task_server_slowdown(lam, bp, rate) == pytest.approx(explicit)

    def test_slowdown_decreases_with_rate(self, bp):
        lam = 0.6
        rates = [0.3, 0.5, 0.7, 1.0]
        slowdowns = [theorem1_task_server_slowdown(lam, bp, r) for r in rates]
        assert slowdowns == sorted(slowdowns, reverse=True)

    def test_unstable_task_server_raises(self, bp):
        lam = 1.0
        with pytest.raises(StabilityError):
            theorem1_task_server_slowdown(lam, bp, lam * bp.mean())

    def test_zero_arrivals(self, bp):
        assert theorem1_task_server_slowdown(0.0, bp, 0.5) == 0.0


class TestSlowdownConstant:
    def test_value(self, bp):
        assert slowdown_constant(bp) == pytest.approx(bp.second_moment() * bp.mean_inverse() / 2.0)

    def test_theorem1_in_terms_of_constant(self, bp):
        lam, rate = 0.7, 0.6
        c = slowdown_constant(bp)
        assert theorem1_task_server_slowdown(lam, bp, rate) == pytest.approx(
            c * lam / (rate - lam * bp.mean())
        )

    def test_requires_bounded_pareto(self):
        with pytest.raises(ParameterError):
            slowdown_constant(Deterministic(1.0))  # type: ignore[arg-type]


class TestMGB1QueueObject:
    def test_describe_includes_closed_form(self, bp):
        q = MGB1Queue(0.5, bp, rate=0.8)
        d = q.describe()
        assert d["slowdown_closed_form"] == pytest.approx(q.expected_slowdown())
        assert d["slowdown"] == pytest.approx(d["slowdown_closed_form"])

    def test_scaled_service(self, bp):
        q = MGB1Queue(0.5, bp, rate=0.25)
        assert q.scaled_service().k == pytest.approx(bp.k / 0.25)

    def test_requires_bounded_pareto(self):
        with pytest.raises(ParameterError):
            MGB1Queue(0.5, Deterministic(1.0))  # type: ignore[arg-type]

    def test_utilisation(self, bp):
        q = MGB1Queue(1.0, bp, rate=0.5)
        assert q.utilisation == pytest.approx(bp.mean() / 0.5)
