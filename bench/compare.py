"""Compare two benchmark sets (a parent commit and a change), or summarise one.

    python3 bench/compare.py PARENT.json [CHANGE.json]

Set files come from ``sweep.py``.  For every (workload, end-to-end metric)
the table gives each side's median and quartiles over its runs and, with
two sets, a verdict against the bound ``BENCHMARK.json`` fixes:

* ``better``     - every change run beats every parent run, or the change
  wins at least 9 in 10 seed-paired runs and the medians differ by more
  than the parent's interquartile range;
* ``worse``      - the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` - the parent's interquartile range, as a share of its
  median, is wider than the bound, so the bound cannot be judged;
* ``within``     - none of the above.

With one set the last column is that spread instead.  Per-layer ``share``
and ``ns_per_req`` medians of the traced runs follow, with their deltas,
so a regression names its layer.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Judge ``change`` against ``parent``; the lists are paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    q1, m0, q3 = quartiles(parent)
    m1 = quartiles(change)[1]
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if every_run_better:
        return "better"
    if (q3 - q1) / abs(m0) > bound:
        return "unresolved"
    if -sign * (m1 - m0) / abs(m0) > bound:
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if sign * (m1 - m0) > q3 - q1 and wins >= 0.9 * min(len(parent), len(change)):
        return "better"
    return "within"


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def paired(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    """Runs of the seeds both sets share, in seed order (all runs if none)."""
    seeds = sorted({r["seed"] for r in parent} & {r["seed"] for r in change})
    if not seeds:
        return parent, change
    p = {r["seed"]: r for r in parent}
    c = {r["seed"]: r for r in change}
    return [p[s] for s in seeds], [c[s] for s in seeds]


def fmt(value: float) -> str:
    return f"{value:.4g}"


def describe(vals: list[float]) -> str:
    q1, median, q3 = quartiles(vals)
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", type=Path, nargs="+", help="one or two set files")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two set files")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [json.loads(path.read_text()) for path in args.sets]
    names = [w["name"] for w in bench["workloads"]]
    worse = False

    last = "verdict" if len(sets) == 2 else "spread"
    print(f"{'workload':<20} {'metric':<20} {'parent median [q1, q3]':<32} ", end="")
    print(f"{'change median [q1, q3]':<32} {'bound':>6}  {last}")
    for workload in names:
        runs = [s["runs"].get(workload, []) for s in sets]
        if len(runs) == 2:
            runs = list(paired(*runs))
        for metric in bench["end_to_end"]:
            sides = [values(r, metric["name"]) for r in runs]
            if not all(sides):
                continue
            if len(sides) == 2:
                outcome = verdict(sides[0], sides[1], metric["better"], metric["bound"])
                worse |= outcome == "worse"
                change = describe(sides[1])
            else:
                outcome, change = f"{spread(sides[0]):.3f}", "-"
            print(f"{workload:<20} {metric['name']:<20} {describe(sides[0]):<32} ", end="")
            print(f"{change:<32} {metric['bound']:>6g}  {outcome}")

    # Shares move in absolute points, ns_per_req relative to the parent.
    print(f"\n{'workload':<20} {'layer metric':<24} {'parent':>12} {'change':>12} {'delta':>10}")
    layer_metrics = [m["name"] for m in bench["per_layer"]]
    for workload in names:
        traced = [s.get("traced", {}).get(workload, []) for s in sets]
        for name in layer_metrics:
            sides = [values(r, name) for r in traced]
            if not name.endswith((".share", ".ns_per_req")) or not all(sides):
                continue
            medians = [statistics.median(side) for side in sides]
            change = delta = "-"
            if len(medians) == 2:
                change = fmt(medians[1])
                delta = medians[1] - medians[0]
                if name.endswith(".ns_per_req"):
                    delta /= medians[0]
                delta = f"{delta:+.3f}"
            print(f"{workload:<20} {name:<24} {fmt(medians[0]):>12} {change:>12} {delta:>10}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
