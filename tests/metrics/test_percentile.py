"""Tests for percentile bands."""

import math

import numpy as np
import pytest

from repro.metrics import PercentileBand, percentile_band


class TestPercentileBand:
    def test_band_of_known_sample(self):
        values = np.arange(1.0, 101.0)
        band = percentile_band(values)
        assert band.median == pytest.approx(50.5)
        assert band.p5 < band.median < band.p95
        assert band.count == 100
        assert band.spread == pytest.approx(band.p95 - band.p5)

    def test_contains(self):
        band = PercentileBand(p5=1.0, median=2.0, p95=4.0, count=10)
        assert band.contains(2.0)
        assert not band.contains(5.0)

    def test_empty_band(self):
        band = percentile_band([])
        assert band.count == 0
        assert math.isnan(band.median)

    def test_nan_dropped(self):
        band = percentile_band([1.0, float("nan"), 3.0])
        assert band.count == 2
