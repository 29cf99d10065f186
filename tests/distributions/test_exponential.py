"""Tests for the exponential distribution.

These encode the Sec. 5 discussion: no finite slowdown for exponential
service times.
"""

import math

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.errors import ParameterError


class TestExponential:
    def test_moments(self):
        e = Exponential(2.0)
        assert e.mean() == pytest.approx(2.0)
        assert e.second_moment() == pytest.approx(8.0)
        assert e.variance() == pytest.approx(4.0)

    def test_mean_inverse_diverges(self):
        assert math.isinf(Exponential(1.0).mean_inverse())

    def test_cdf_ppf_roundtrip(self):
        e = Exponential(0.5)
        qs = np.linspace(0.0, 0.999, 100)
        np.testing.assert_allclose(e.cdf(e.ppf(qs)), qs, atol=1e-12)

    def test_sampling_mean(self, rng):
        e = Exponential(3.0)
        samples = e.sample(rng, 100_000)
        assert np.mean(samples) == pytest.approx(3.0, rel=0.02)

    def test_scaling(self):
        e = Exponential(1.0).scaled(0.5)
        assert e.mean() == pytest.approx(2.0)

    def test_rejects_non_positive_mean(self):
        with pytest.raises(ParameterError):
            Exponential(0.0)
