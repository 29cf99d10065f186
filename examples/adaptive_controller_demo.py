#!/usr/bin/env python
"""Adaptive rate re-allocation under a traffic shift.

The PSD controller estimates each class's load every window (1000 time
units) from the last five windows and re-solves Eq. 17.  This demo drives
the server with a *non-stationary* workload — halfway through the run the
low-priority class's arrival rate triples — and shows how the allocated
rates and the per-window slowdown ratio react.

It also demonstrates extending the library: the time-varying arrival process
is a tiny custom ``ArrivalProcess`` subclass defined right here.

Run with::

    python examples/adaptive_controller_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PsdSpec
from repro.distributions import BoundedPareto, spawn_generators
from repro.experiments import render_table
from repro.queueing import arrival_rate_for_load
from repro.simulation import (
    ArrivalProcess,
    MeasurementConfig,
    RequestSource,
    Scenario,
)
from repro.types import TrafficClass


class PiecewiseRatePoisson(ArrivalProcess):
    """Poisson arrivals whose rate switches at a given simulated time."""

    def __init__(self, rate_before: float, rate_after: float, switch_time: float) -> None:
        self.rate_before = rate_before
        self.rate_after = rate_after
        self.switch_time = switch_time
        self._elapsed = 0.0

    def next_interarrival(self, rng: np.random.Generator) -> float:
        rate = self.rate_before if self._elapsed < self.switch_time else self.rate_after
        gap = float(rng.exponential(1.0 / rate))
        self._elapsed += gap
        return gap


def main() -> None:
    service = BoundedPareto.paper_default()
    spec = PsdSpec.of(1, 2)
    base_rate = arrival_rate_for_load(0.5, service) / 2  # 25% load per class

    config = MeasurementConfig(
        warmup=2_000.0, horizon=24_000.0, window=1_000.0
    ).scaled_to_time_units(service.mean())
    switch_time = config.horizon / 2

    classes = (
        TrafficClass("interactive", base_rate, service, delta=1.0),
        TrafficClass("batch", base_rate, service, delta=2.0),
    )
    rngs = spawn_generators(99, 2)
    sources = [
        RequestSource(
            0, PiecewiseRatePoisson(base_rate, base_rate, switch_time), service, rngs[0]
        ),
        # The batch class's traffic grows 2.2x halfway through the run,
        # raising the total system load from 50% to 80%; the controller must
        # shift capacity toward it to keep the slowdown ratio at the target.
        RequestSource(
            1, PiecewiseRatePoisson(base_rate, 2.2 * base_rate, switch_time), service, rngs[1]
        ),
    ]

    # Explicit sources plug straight into the Scenario assembly; the server
    # model defaults to the paper's idealised rate-scalable task servers.
    sim = Scenario(classes, config, spec=spec, sources=sources, seed=1)
    result = sim.run()

    print("Rate allocated to each class over time (every 4th window shown):")
    rows = []
    for time, rates in result.rate_history[::4]:
        rows.append(
            {
                "time (time units)": time / service.mean(),
                "interactive rate": rates[0],
                "batch rate": rates[1],
                "phase": "before shift" if time < switch_time else "after shift",
            }
        )
    print(render_table(tuple(rows[0].keys()), rows))

    before = [r for t, r in result.rate_history if 0 < t < switch_time]
    after = [r for t, r in result.rate_history if t >= switch_time + 5 * config.window]
    mean_before = np.mean([r[1] for r in before])
    mean_after = np.mean([r[1] for r in after])
    print(f"\nmean rate granted to the batch class: {mean_before:.3f} before the "
          f"shift -> {mean_after:.3f} after it (its traffic grew 2.2x)")

    ratios = result.monitor.ratio_series(1, 0)
    print(f"median per-window slowdown ratio batch/interactive: "
          f"{np.median(ratios):.2f} (target {spec.target_ratio(1, 0):.1f})")
    print(f"controller decisions recorded: {len(result.controller.decisions)}")


if __name__ == "__main__":
    main()
