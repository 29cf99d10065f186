"""The chunked request stream of ``RequestSource``.

A source draws its arrivals in chunks of ``_CHUNK``: ``_CHUNK`` gaps, then
``_CHUNK`` sizes, from the class RNG, with absolute times the left fold of
the gaps.  These tests rebuild that layout from raw NumPy calls and a plain
Python fold, check that any tiling of the timeline by ``draw_block`` bounds
reads one stream, that the scalar and block APIs agree, and that the stream
has the model's distributions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import BoundedPareto, Deterministic
from repro.errors import ParameterError
from repro.simulation import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    RequestSource,
)
from repro.simulation.generator import _CHUNK

SIZES = BoundedPareto(k=0.1, p=10.0, alpha=1.5)
RATE = 2.0


def poisson_source(seed: int = 7, rate: float = RATE) -> RequestSource:
    return RequestSource(0, PoissonArrivals(rate), SIZES, np.random.default_rng(seed))


def scalar_arrivals(source: RequestSource, n: int) -> tuple[list[float], list[float]]:
    """``n`` arrivals through the per-event protocol: gap, then size."""
    times, sizes, t = [], [], 0.0
    for _ in range(n):
        t = t + source.next_interarrival()
        times.append(t)
        sizes.append(source.next_size())
    return times, sizes


def ks_pvalue(samples: np.ndarray, cdf) -> float:
    """Asymptotic two-sided Kolmogorov-Smirnov p-value against ``cdf``."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    terms = [(-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101)]
    return min(1.0, max(0.0, 2.0 * sum(terms)))


class _Cycle(ArrivalProcess):
    """Defines only ``next_interarrival``: cycles a fixed gap list."""

    def __init__(self, gaps) -> None:
        self.gaps = list(gaps)
        self.calls = 0

    def next_interarrival(self, rng: np.random.Generator) -> float:
        gap = self.gaps[self.calls % len(self.gaps)]
        self.calls += 1
        return gap


class _SwitchOff(ArrivalProcess):
    """Unit gaps for ``n`` arrivals, then ``+inf``; must not be asked again."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def next_interarrival(self, rng: np.random.Generator) -> float:
        self.calls += 1
        if self.calls > self.n + 1:
            raise AssertionError("gap drawn after the class switched off")
        return 1.0 if self.calls <= self.n else math.inf


class _Sizes:
    """A size "distribution" returning a fixed array."""

    def __init__(self, value: float) -> None:
        self.value = value

    def sample(self, rng, size=None):
        return np.full(size, self.value)


class TestChunkLayout:
    def test_replays_raw_numpy_draws_and_a_python_fold(self):
        rng = np.random.default_rng(7)
        times, sizes, t = [], [], 0.0
        for _ in range(3):
            gaps = rng.exponential(1.0 / RATE, _CHUNK)
            sizes.extend(SIZES.sample(rng, _CHUNK).tolist())
            for gap in gaps.tolist():
                t = t + gap
                times.append(t)
        source = poisson_source()
        got_times, got_sizes = source.draw_block(times[-1], inclusive=True)
        assert got_times.tolist() == times
        assert got_sizes.tolist() == sizes

    def test_scalar_api_equals_block_api(self):
        n = 2 * _CHUNK + _CHUNK // 2
        times, sizes = scalar_arrivals(poisson_source(), n)
        block_times, block_sizes = poisson_source().draw_block(times[-1], inclusive=True)
        assert block_times.tolist() == times
        assert block_sizes.tolist() == sizes

    def test_scalar_draws_must_alternate_across_a_chunk_edge(self):
        source = poisson_source()
        for _ in range(_CHUNK):
            source.next_interarrival()
        with pytest.raises(ParameterError, match="alternate"):
            source.next_interarrival()

    @given(
        steps=st.lists(
            st.tuples(st.integers(min_value=1, max_value=900), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        poisson=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_bound_tiling_concatenates_to_one_draw(self, steps, poisson):
        # Bounds on a 0.25 grid: exact ties with the deterministic stream's
        # arrival times, so the inclusive flag matters at every bound.
        def make() -> RequestSource:
            arrivals = PoissonArrivals(4.0) if poisson else DeterministicArrivals(0.25)
            return RequestSource(0, arrivals, SIZES, np.random.default_rng(3))

        tiled, bound = make(), 0.0
        parts_t, parts_s = [], []
        for increment, inclusive in steps:
            bound += 0.25 * increment
            t, s = tiled.draw_block(bound, inclusive=inclusive)
            parts_t.append(t)
            parts_s.append(s)
        whole_t, whole_s = make().draw_block(bound, inclusive=steps[-1][1])
        assert np.concatenate(parts_t).tolist() == whole_t.tolist()
        assert np.concatenate(parts_s).tolist() == whole_s.tolist()


class TestStreamDistributions:
    def test_gaps_are_exponential(self):
        times, _ = poisson_source(seed=11).draw_block(4 * _CHUNK / RATE)
        gaps = np.diff(times, prepend=0.0)
        assert ks_pvalue(gaps, lambda x: 1.0 - np.exp(-RATE * x)) > 0.01

    def test_sizes_are_bounded_pareto(self):
        _, sizes = poisson_source(seed=11).draw_block(4 * _CHUNK / RATE)
        assert ks_pvalue(sizes, SIZES.cdf) > 0.01


class TestSourceEdgeCases:
    @pytest.mark.parametrize("bound", [1e9, math.inf])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_rate_zero_source_terminates(self, bound, inclusive):
        source = poisson_source(rate=0.0)
        times, sizes = source.draw_block(bound, inclusive=inclusive)
        assert times.size == 0 and sizes.size == 0
        assert math.isinf(source.next_interarrival())

    def test_custom_process_with_only_next_interarrival(self):
        source = RequestSource(0, _Cycle([1.0, 2.0, 3.0]), Deterministic(1.0), None)
        n = _CHUNK + 5
        expected, t = [], 0.0
        for i in range(n):
            t = t + [1.0, 2.0, 3.0][i % 3]
            expected.append(t)
        times, sizes = source.draw_block(expected[-1], inclusive=True)
        assert times.tolist() == expected
        assert sizes.tolist() == [1.0] * n

    def test_default_draw_gaps_stops_at_switch_off(self):
        source = RequestSource(0, _SwitchOff(5), Deterministic(1.0), None)
        times, _ = source.draw_block(math.inf)
        assert times.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert source.draw_block(1e12)[0].size == 0


class TestInvalidStreams:
    @pytest.mark.parametrize(
        "gaps", [[1.0, -0.5, 1.0, math.nan], [1.0, math.nan], [-1.0], [1.0, -math.inf]]
    )
    def test_negative_or_nan_gap_raises(self, gaps):
        source = RequestSource(0, _Cycle(gaps), Deterministic(1.0), None)
        with pytest.raises(ParameterError, match="inter-arrival"):
            source.draw_block(10.0)

    def test_negative_gap_raises_on_the_scalar_api(self):
        source = RequestSource(0, _Cycle([1.0, -0.5]), Deterministic(1.0), None)
        with pytest.raises(ParameterError, match="inter-arrival"):
            source.next_interarrival()

    def test_infinite_gap_switches_the_class_off(self):
        source = RequestSource(0, _Cycle([1.0, 1.0, math.inf]), Deterministic(1.0), None)
        times, _ = source.draw_block(100.0)
        assert times.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_non_positive_size_raises(self, value):
        source = RequestSource(0, PoissonArrivals(1.0), _Sizes(value), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="non-positive"):
            source.draw_block(10.0)

    def test_draw_gaps_of_the_wrong_length_raises(self):
        class Short(_Cycle):
            def draw_gaps(self, rng, n):
                return np.ones(n - 1)

        source = RequestSource(0, Short([1.0]), Deterministic(1.0), None)
        with pytest.raises(ParameterError, match="shape"):
            source.draw_block(10.0)
