"""Comparison bench: PSD rate allocation vs the baseline allocations.

For the same two-class workload (deltas (1, 4), 70% load) the bench compares
the slowdown ratios achieved by:

* the PSD allocation of Eq. 17 (the paper's contribution),
* the rate-based proportional *delay* allocation (PDD, the related work the
  introduction argues is insufficient for slowdown differentiation),
* a demand-proportional (GPS fair-share) split,
* an equal split.

Analytic predictions (via Theorem 1) and simulation are both reported.  The
expected shape: only the PSD allocation hits the slowdown target; PDD lands
away from it; demand-proportional gives no differentiation at all.
"""

import math

import pytest

from repro.core import (
    PsdSpec,
    allocate_pdd_rates,
    allocate_rates,
    demand_proportional_split,
    equal_split,
)
from repro.experiments import render_table
from repro.queueing import theorem1_task_server_slowdown
from repro.simulation import (
    RateScalableServers,
    Scenario,
    StaticRateController,
    run_replications,
)

LOAD = 0.7
DELTAS = (1.0, 4.0)


def analytic_ratio(classes, rates):
    slowdowns = [
        theorem1_task_server_slowdown(c.arrival_rate, c.service, r)
        for c, r in zip(classes, rates)
    ]
    return slowdowns[1] / slowdowns[0]


def simulate_ratio(bench_config, classes, rates, seed):
    measurement = bench_config.scaled_measurement()

    def build(_, seed_seq):
        return Scenario(
            classes,
            measurement,
            server=RateScalableServers(),
            controller=StaticRateController(rates),
            seed=seed_seq,
        ).run()

    summary = run_replications(
        build, replications=bench_config.measurement.replications, base_seed=seed
    )
    return summary.ratio_of_mean_slowdowns[1]


@pytest.mark.benchmark(group="ablations")
def test_baseline_allocations(benchmark, bench_config):
    spec = PsdSpec(DELTAS)
    classes = bench_config.classes_for_load(LOAD, DELTAS)

    def run_all(config):
        allocations = {
            "psd (eq. 17)": allocate_rates(classes, spec).rates,
            "pdd (delay-proportional)": allocate_pdd_rates(classes, spec).rates,
            "demand-proportional": demand_proportional_split(classes),
            "equal-split": equal_split(classes),
        }
        rows = []
        for seed, (name, rates) in enumerate(allocations.items(), start=41):
            rows.append(
                {
                    "allocation": name,
                    "rate_1": rates[0],
                    "rate_2": rates[1],
                    "analytic_ratio": analytic_ratio(classes, rates),
                    "simulated_ratio": simulate_ratio(config, classes, rates, seed),
                    "target_ratio": DELTAS[1] / DELTAS[0],
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, args=(bench_config,), rounds=1, iterations=1)
    print()
    print(
        render_table(
            (
                "allocation",
                "rate_1",
                "rate_2",
                "analytic_ratio",
                "simulated_ratio",
                "target_ratio",
            ),
            rows,
        )
    )

    by_name = {row["allocation"]: row for row in rows}
    target = DELTAS[1] / DELTAS[0]

    # Only the PSD allocation hits the slowdown target analytically.
    assert by_name["psd (eq. 17)"]["analytic_ratio"] == pytest.approx(target, rel=1e-9)
    assert abs(by_name["pdd (delay-proportional)"]["analytic_ratio"] - target) > 0.2
    assert by_name["demand-proportional"]["analytic_ratio"] == pytest.approx(1.0, rel=1e-9)

    # Simulation agrees with the ranking: PSD is closest to the target.
    # Ratios are compared on the log scale — heavy-tailed noise makes the
    # PSD ratio overshoot multiplicatively (e.g. 7.5 against a target of 4),
    # and on the absolute scale such an overshoot can spuriously look worse
    # than demand-proportional's structural failure to differentiate at all
    # (ratio pinned near 1 regardless of the target).
    psd_error = abs(math.log(by_name["psd (eq. 17)"]["simulated_ratio"] / target))
    demand_error = abs(math.log(by_name["demand-proportional"]["simulated_ratio"] / target))
    assert psd_error < demand_error

    # The equal split leaves both task servers stable here (load 0.35 < 0.5
    # each) and gives a ratio far from the target as well.
    assert abs(by_name["equal-split"]["analytic_ratio"] - target) > 0.5
