"""Tests for the numerical moment machinery."""

import numpy as np
import pytest

from repro.distributions import (
    BoundedPareto,
    numerical_moment,
    sample_moments,
    verify_moments,
)
from repro.errors import DistributionError


class TestNumericalMoments:
    def test_matches_closed_form_for_bounded_pareto(self):
        bp = BoundedPareto(1.0, 2.0, 2.5)
        assert numerical_moment(bp, 1.0) == pytest.approx(bp.mean(), rel=1e-6)

    def test_requires_enough_points(self):
        with pytest.raises(DistributionError):
            numerical_moment(BoundedPareto(1.0, 2.0, 2.5), 1.0, points=2)

    def test_sample_moments_structure(self, rng):
        bp = BoundedPareto(1.0, 2.0, 2.5)
        m = sample_moments(bp.sample(rng, 10_000))
        assert set(m) == {"mean", "second_moment", "mean_inverse"}
        assert m["mean"] == pytest.approx(bp.mean(), rel=0.02)

    def test_sample_moments_rejects_empty(self):
        with pytest.raises(DistributionError):
            sample_moments(np.asarray([]))

    def test_verify_moments_report(self):
        report = verify_moments(BoundedPareto(0.1, 10.0, 1.5), points=50_001)
        assert report.max_relative_error < 1e-5
        assert report.analytic_mean == pytest.approx(report.numeric_mean, rel=1e-5)

    def test_verify_moments_skips_infinite_analytic_values(self):
        from repro.distributions import Exponential

        report = verify_moments(Exponential(1.0), points=50_001)
        # E[1/X] is infinite analytically; the report must not blow up.
        assert report.max_relative_error < 1e-3
