"""Production-shaped arrival patterns: diurnal cycles and flash crowds.

Everything upstream runs stationary Poisson arrivals; autoscaling is only
interesting when load *moves*.  This module generates non-stationary
arrival streams as plain :class:`~repro.simulation.TraceSource` traces —
pre-materialised inhomogeneous Poisson sample paths — so the whole
capture/replay, cluster, fleet and bench stack consumes them unchanged,
and every replay of a trace draws the identical request sequence
bit-for-bit.

A pattern is a time-varying *rate factor* multiplying each class's mean
arrival rate: :class:`DiurnalPattern` is a sinusoidal day cycle,
:class:`FlashCrowd` a rectangular surge; a sequence of patterns composes
multiplicatively (a flash crowd on top of the afternoon peak).  Sample
paths are drawn by thinning: ``N ~ Poisson(peak_rate * horizon)`` uniform
arrival candidates, each kept with probability ``rate(t) / peak_rate`` —
the standard exact simulation of an inhomogeneous Poisson process.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..distributions.rng import spawn_generators
from ..errors import ParameterError
from ..simulation.generator import TraceSource
from ..types import TrafficClass
from ..validation import require_in_range, require_non_negative, require_positive

__all__ = [
    "DiurnalPattern",
    "FlashCrowd",
    "pattern_factor",
    "pattern_peak",
    "pattern_sources",
]


@dataclass(frozen=True)
class DiurnalPattern:
    """A sinusoidal day cycle: factor ``1 + amplitude * sin(2π(t/period + phase))``.

    ``amplitude`` in ``[0, 1)`` keeps the rate strictly positive; the
    time-average factor over whole periods is exactly 1, so a class's mean
    arrival rate is preserved.
    """

    amplitude: float = 0.5
    period: float = 2_000.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        require_in_range(self.amplitude, "amplitude", 0.0, 1.0, inclusive_high=False)
        require_positive(self.period, "period")

    def factor_at(self, times: np.ndarray) -> np.ndarray:
        return 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * (np.asarray(times, dtype=np.float64) / self.period + self.phase)
        )

    @property
    def peak_factor(self) -> float:
        return 1.0 + self.amplitude


@dataclass(frozen=True)
class FlashCrowd:
    """A rectangular surge: factor ``magnitude`` over ``[start, start + duration)``."""

    start: float
    duration: float
    magnitude: float = 3.0

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        require_positive(self.duration, "duration")
        if not self.magnitude >= 1.0:
            raise ParameterError(f"magnitude must be >= 1, got {self.magnitude!r}")

    def factor_at(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        inside = (times >= self.start) & (times < self.start + self.duration)
        return np.where(inside, self.magnitude, 1.0)

    @property
    def peak_factor(self) -> float:
        return self.magnitude


def pattern_factor(patterns: Sequence, times: np.ndarray) -> np.ndarray:
    """The composed (multiplicative) rate factor at each time."""
    factor = np.ones_like(np.asarray(times, dtype=np.float64))
    for pattern in patterns:
        factor = factor * pattern.factor_at(times)
    return factor


def pattern_peak(patterns: Sequence) -> float:
    """An upper bound on the composed factor (the thinning envelope)."""
    peak = 1.0
    for pattern in patterns:
        peak *= float(pattern.peak_factor)
    return peak


def pattern_sources(
    classes: Sequence[TrafficClass],
    patterns: Sequence,
    *,
    horizon: float,
    seed: int | np.random.SeedSequence | None = 0,
) -> list[TraceSource]:
    """One pre-materialised trace source per class under the composed pattern.

    Each class's instantaneous arrival rate is ``class.arrival_rate *
    pattern_factor(patterns, t)``; sizes are vector-drawn from the class's
    own service distribution.  ``seed`` spawns one independent stream per
    class (pass the replication's seed so every replication sees a fresh
    sample path, deterministically).  An empty ``patterns`` sequence
    degenerates to a plain pre-drawn Poisson trace of the classes' mean
    rates.
    """
    require_positive(horizon, "horizon")
    peak = pattern_peak(patterns)
    rngs = spawn_generators(seed, len(classes))
    sources: list[TraceSource] = []
    for index, (cls, rng) in enumerate(zip(classes, rngs)):
        lam_max = cls.arrival_rate * peak
        count = int(rng.poisson(lam_max * horizon)) if lam_max > 0.0 else 0
        times = np.sort(rng.uniform(0.0, horizon, count))
        if count:
            # Thin: accept with probability rate(t) / peak_rate.
            keep = rng.uniform(0.0, 1.0, count) * peak < pattern_factor(patterns, times)
            times = times[keep]
        sizes = (
            np.asarray(cls.service.sample(rng, size=times.size), dtype=np.float64)
            if times.size
            else np.empty(0, dtype=np.float64)
        )
        gaps = np.diff(times, prepend=0.0)
        sources.append(TraceSource(index, gaps, sizes))
    return sources
