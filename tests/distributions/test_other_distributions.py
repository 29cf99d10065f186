"""Tests for the auxiliary distributions (Deterministic, Hyperexponential)."""

import math

import numpy as np
import pytest

from repro.distributions import Deterministic, Hyperexponential
from repro.errors import DistributionError, ParameterError


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(2.0)
        assert d.mean() == 2.0
        assert d.second_moment() == 4.0
        assert d.mean_inverse() == 0.5

    def test_cdf_step(self):
        d = Deterministic(1.5)
        assert d.cdf(1.4) == 0.0
        assert d.cdf(1.5) == 1.0

    def test_sample_returns_constant(self, rng):
        d = Deterministic(7.0)
        assert float(d.sample(rng)) == 7.0
        np.testing.assert_array_equal(d.sample(rng, 5), np.full(5, 7.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            Deterministic(0.0)


class TestHyperexponential:
    def test_moments_are_mixtures(self):
        h = Hyperexponential(probabilities=(0.7, 0.3), means=(1.0, 10.0))
        assert h.mean() == pytest.approx(0.7 * 1.0 + 0.3 * 10.0)
        assert h.second_moment() == pytest.approx(0.7 * 2.0 + 0.3 * 200.0)
        assert math.isinf(h.mean_inverse())

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            Hyperexponential(probabilities=(0.5, 0.3), means=(1.0, 2.0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DistributionError):
            Hyperexponential(probabilities=(0.5, 0.5), means=(1.0,))

    def test_ppf_inverts_cdf(self):
        h = Hyperexponential(probabilities=(0.6, 0.4), means=(0.5, 5.0))
        qs = np.asarray([0.05, 0.25, 0.5, 0.75, 0.95])
        xs = h.ppf(qs)
        np.testing.assert_allclose(h.cdf(xs), qs, atol=1e-6)

    def test_sample_mean_converges(self, rng):
        h = Hyperexponential(probabilities=(0.8, 0.2), means=(1.0, 5.0))
        samples = h.sample(rng, 100_000)
        assert np.mean(samples) == pytest.approx(h.mean(), rel=0.03)
