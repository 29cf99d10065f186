"""Non-stationary arrival patterns: shapes, thinning correctness, determinism."""

import numpy as np
import pytest

from repro.distributions import BoundedPareto
from repro.errors import ParameterError
from repro.simulation import MeasurementConfig, Scenario
from repro.workload import (
    DiurnalPattern,
    FlashCrowd,
    pattern_factor,
    pattern_peak,
    pattern_sources,
)
from tests.conftest import make_classes
from tests.reference import ReferenceScenario

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


@pytest.fixture(scope="module")
def classes():
    return make_classes(BoundedPareto(k=0.1, p=10.0, alpha=1.5), 0.6, (1.0, 2.0))


class TestDiurnalPattern:
    def test_factor_oscillates_around_one(self):
        p = DiurnalPattern(amplitude=0.5, period=100.0)
        times = np.array([0.0, 25.0, 50.0, 75.0])
        np.testing.assert_allclose(p.factor_at(times), [1.0, 1.5, 1.0, 0.5], atol=1e-12)
        assert p.peak_factor == 1.5

    def test_mean_factor_is_one_over_whole_periods(self):
        p = DiurnalPattern(amplitude=0.8, period=50.0)
        times = np.linspace(0.0, 100.0, 20_001)[:-1]
        assert np.mean(p.factor_at(times)) == pytest.approx(1.0, abs=1e-6)

    def test_phase_shifts_the_cycle(self):
        base = DiurnalPattern(amplitude=0.5, period=100.0)
        shifted = DiurnalPattern(amplitude=0.5, period=100.0, phase=0.25)
        assert shifted.factor_at(np.array([0.0]))[0] == pytest.approx(
            base.factor_at(np.array([25.0]))[0]
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            DiurnalPattern(amplitude=1.0)
        with pytest.raises(ParameterError):
            DiurnalPattern(amplitude=-0.1)
        with pytest.raises(ParameterError):
            DiurnalPattern(period=0.0)


class TestFlashCrowd:
    def test_rectangular_surge(self):
        p = FlashCrowd(start=10.0, duration=5.0, magnitude=3.0)
        times = np.array([9.0, 10.0, 14.999, 15.0])
        np.testing.assert_array_equal(p.factor_at(times), [1.0, 3.0, 3.0, 1.0])
        assert p.peak_factor == 3.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            FlashCrowd(start=-1.0, duration=5.0)
        with pytest.raises(ParameterError):
            FlashCrowd(start=0.0, duration=0.0)
        with pytest.raises(ParameterError):
            FlashCrowd(start=0.0, duration=5.0, magnitude=0.5)


class TestComposition:
    def test_patterns_compose_multiplicatively(self):
        patterns = (
            DiurnalPattern(amplitude=0.5, period=100.0),
            FlashCrowd(start=20.0, duration=10.0, magnitude=2.0),
        )
        t = np.array([25.0])  # diurnal peak (1.5) inside the flash (x2)
        assert pattern_factor(patterns, t)[0] == pytest.approx(3.0)
        assert pattern_peak(patterns) == pytest.approx(3.0)

    def test_empty_sequence_is_identity(self):
        times = np.array([1.0, 2.0])
        np.testing.assert_array_equal(pattern_factor((), times), [1.0, 1.0])
        assert pattern_peak(()) == 1.0


class TestPatternSources:
    def test_deterministic_per_seed(self, classes):
        patterns = (DiurnalPattern(amplitude=0.5, period=300.0),)
        a = pattern_sources(classes, patterns, horizon=1_000.0, seed=7)
        b = pattern_sources(classes, patterns, horizon=1_000.0, seed=7)
        c = pattern_sources(classes, patterns, horizon=1_000.0, seed=8)
        for src_a, src_b in zip(a, b):
            np.testing.assert_array_equal(src_a._interarrivals, src_b._interarrivals)
            np.testing.assert_array_equal(src_a._sizes, src_b._sizes)
        assert any(
            not np.array_equal(src_a._interarrivals, src_c._interarrivals)
            for src_a, src_c in zip(a, c)
        )

    def test_empty_patterns_match_mean_rates(self, classes):
        horizon = 50_000.0
        sources = pattern_sources(classes, (), horizon=horizon, seed=3)
        for cls, source in zip(classes, sources):
            count = len(source)
            expected = cls.arrival_rate * horizon
            assert count == pytest.approx(expected, rel=0.05)

    def test_thinning_concentrates_arrivals_at_the_peak(self, classes):
        period = 1_000.0
        sources = pattern_sources(
            classes, (DiurnalPattern(amplitude=0.9, period=period),), horizon=20_000.0, seed=5
        )
        times = np.cumsum(sources[0]._interarrivals)
        phase = (times % period) / period
        peak = np.count_nonzero((phase > 0.0) & (phase < 0.5))  # rising half
        trough = np.count_nonzero(phase >= 0.5)
        assert peak > 1.5 * trough

    def test_flash_crowd_multiplies_local_rate(self, classes):
        flash = FlashCrowd(start=5_000.0, duration=1_000.0, magnitude=3.0)
        sources = pattern_sources(classes, (flash,), horizon=20_000.0, seed=11)
        times = np.cumsum(sources[0]._interarrivals)
        inside = np.count_nonzero((times >= 5_000.0) & (times < 6_000.0))
        outside = np.count_nonzero(times < 1_000.0)
        assert inside == pytest.approx(3.0 * outside, rel=0.35)

    def test_sources_replay_in_a_scenario(self, classes):
        config = MeasurementConfig(warmup=100.0, horizon=800.0, window=100.0)
        patterns = (DiurnalPattern(amplitude=0.5, period=400.0),)
        sources = pattern_sources(classes, patterns, horizon=config.horizon, seed=2)
        generated = [len(src) for src in sources]
        batched = Scenario(classes, config, sources=sources, seed=1).run()
        sources = pattern_sources(classes, patterns, horizon=config.horizon, seed=2)
        scalar = ReferenceScenario(classes, config, sources=sources, seed=1).run()
        assert batched.generated_counts == tuple(generated)
        assert batched.generated_counts == scalar.generated_counts
        assert batched.per_class_mean_slowdowns() == scalar.per_class_mean_slowdowns()

    def test_horizon_validated(self, classes):
        with pytest.raises(ParameterError):
            pattern_sources(classes, (), horizon=0.0)
