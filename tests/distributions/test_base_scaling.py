"""Tests for the Distribution base class and its rate scaling (Lemma 2)."""

import numpy as np
import pytest

from repro.distributions import BoundedPareto, Deterministic, Distribution, numerical_moment
from repro.errors import ParameterError


class TestRateScaling:
    """Lemma 2 through :meth:`Distribution.scaled`, which every distribution
    implements in closed form."""

    def test_moments_follow_lemma2(self):
        base = BoundedPareto(1.0, 5.0, 1.5)
        rate = 0.5
        scaled = base.scaled(rate)
        assert scaled.mean() == pytest.approx(base.mean() / rate)
        assert scaled.second_moment() == pytest.approx(base.second_moment() / rate**2)
        assert scaled.mean_inverse() == pytest.approx(rate * base.mean_inverse())

    def test_pdf_change_of_variables(self):
        base = BoundedPareto(1.0, 3.0, 1.5)
        scaled = base.scaled(0.5)  # support becomes [2, 6]
        xs = np.linspace(0.0, 8.0, 200)
        # Densities must integrate to one over the scaled support, and
        # follow ``rate * f(rate * y)``.
        mass = np.trapezoid(scaled.pdf(xs), xs)
        assert mass == pytest.approx(1.0, rel=2e-2)
        np.testing.assert_allclose(scaled.pdf(xs), 0.5 * base.pdf(0.5 * xs))
        assert scaled.support == (2.0, 6.0)

    def test_cdf_and_ppf_consistency(self):
        base = BoundedPareto(1.0, 3.0, 1.5)
        scaled = base.scaled(0.25)
        qs = np.linspace(0.0, 1.0, 21)
        xs = scaled.ppf(qs)
        np.testing.assert_allclose(scaled.cdf(xs), qs, atol=1e-12)
        np.testing.assert_allclose(xs, base.ppf(qs) / 0.25)

    def test_sampling_scales_samples(self, rng):
        base = Deterministic(2.0)
        scaled = base.scaled(0.5)
        assert float(scaled.sample(rng)) == pytest.approx(4.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            BoundedPareto(1.0, 2.0, 1.5).scaled(0.0)

    def test_scaled_is_abstract(self):
        # No generic wrapper: a distribution without ``scaled`` cannot be
        # built.
        class NoScaling(Distribution):
            def mean(self):
                return 1.0

            second_moment = mean_inverse = mean

            def pdf(self, x):
                return x

            cdf = ppf = pdf

        with pytest.raises(TypeError, match="scaled"):
            NoScaling()


class TestDerivedStatistics:
    def test_variance_and_scv(self):
        bp = BoundedPareto(1.0, 3.0, 1.5)
        mean = numerical_moment(bp, 1.0)
        variance = numerical_moment(bp, 2.0) - mean**2
        assert bp.variance() == pytest.approx(variance, rel=1e-6)
        assert bp.squared_coefficient_of_variation() == pytest.approx(variance / mean**2, rel=1e-6)

    def test_describe_contains_all_moments(self):
        bp = BoundedPareto.paper_default()
        d = bp.describe()
        assert set(d) == {"mean", "second_moment", "mean_inverse", "variance", "scv"}
        assert d["mean"] == pytest.approx(bp.mean())

    def test_deterministic_zero_variance(self):
        d = Deterministic(3.0)
        assert d.variance() == 0.0
        assert d.squared_coefficient_of_variation() == 0.0

    def test_heavy_tail_has_larger_scv_than_deterministic(self):
        bp = BoundedPareto.paper_default()
        assert bp.squared_coefficient_of_variation() > 1.0
