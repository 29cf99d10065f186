"""One round of one workload, in a fresh process started by ``run.py``.

    python3 bench/measure.py --workload NAME --seed N --round R --spawned-at T [--trace]

An untraced round warms up, then runs the round's replications through
``ReplicationRunner`` with the workload's worker count, each preceded by a
calibration kernel in the process that runs it.  A traced round runs them
three times: serially untraced (the reference digests and timings),
through a 2-worker pool (the transport profile), and serially with every
layer's entry points wrapped.  Either way the last stdout line is one JSON
record of raw sums; ``run.py`` turns the records into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import spans
from workloads import REPLICATIONS_PER_ROUND, WORKLOADS, make_build, round_seed

from repro.experiments.base import pooled_window_ratios
from repro.simulation.ledger import DISPOSITION_SHED
from repro.simulation.runner import ReplicationRunner, WorkerPool

#: Warm-up replications run at this fraction of the workload's horizon.
WARMUP_SCALE = 0.1
#: Workers of the traced round's untraced pass (the machine has two cores).
POOL_WORKERS = 2
#: The ledger's own tolerance on lifecycle timestamps.
TIME_TOL = 1e-12
#: Calibration kernel runs timed before each replication.
CALIBRATION_SAMPLES = 3


def digest(result) -> str:
    """Hash of the ledger columns and the rate history of one replication."""
    ledger = result.ledger
    h = hashlib.sha256()
    for column in (
        ledger.class_index,
        ledger.arrival_time,
        ledger.size,
        ledger.service_start_time,
        ledger.completion_time,
        ledger.disposition,
        ledger.completed_ids,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    for at, rates in result.rate_history:
        h.update(np.asarray((at, *rates), dtype=np.float64).tobytes())
    return h.hexdigest()


def check(result) -> list[str]:
    """The invariants one replication breaks (empty when it holds them all)."""
    ledger = result.ledger
    num_classes = len(result.classes)
    done = ~np.isnan(ledger.completion_time)
    shed = ledger.disposition == DISPOSITION_SHED
    failures = []
    # Scenario counters against the ledger: degraded rows sit under their
    # target class, so shift them back to the class that generated them.
    unfinished = np.bincount(ledger.class_index[~done & ~shed], minlength=num_classes)
    generated = (
        np.asarray(result.generated_counts)
        - np.asarray(result.degraded_counts)
        + np.asarray(result.degraded_into_counts)
    )
    accounted = (
        np.asarray(result.completed_counts) + np.asarray(result.rejected_counts) + unfinished
    )
    if not np.array_equal(generated, accounted):
        failures.append("generated != completed + shed + unfinished")
    start = ledger.service_start_time[done]
    if not (
        np.all(ledger.arrival_time[done] <= start + TIME_TOL)
        and np.all(start <= ledger.completion_time[done] + TIME_TOL)
    ):
        failures.append("arrival <= service start <= completion broken")
    if (~np.isnan(ledger.service_start_time[shed])).any() or done[shed].any():
        failures.append("shed row has service timestamps")
    if sum(result.completed_counts) != ledger.num_completed:
        failures.append("sum(completed_counts) != ledger.num_completed")
    return failures


def replicate(build, root, workers: int, pool) -> tuple[list, float]:
    """One round through the public runner, plus the monitor's pooled ratios.

    ``root`` is ``(seed, workload, round)``; the seed tree is rebuilt on
    every call because ``SeedSequence.spawn`` is stateful.
    """
    start = time.perf_counter()
    summary = ReplicationRunner(
        REPLICATIONS_PER_ROUND, base_seed=round_seed(*root), workers=workers, pool=pool
    ).run(build)
    for numerator in range(1, len(summary.results[0].classes)):
        pooled_window_ratios(summary, numerator)
    return list(summary.results), time.perf_counter() - start


def calibration_samples(samples: int = CALIBRATION_SAMPLES) -> list[float]:
    """Wall times of a fixed pure-Python + NumPy kernel, after one warm-up run.

    The kernel shares no code with the program, so its time moves only with
    the speed of the CPU it runs on; ``run.py`` scales host times by it to
    cancel the drift a shared machine shows from one second to the next.
    """
    values = np.random.default_rng(0).random(256)
    times = []
    for _ in range(samples + 1):
        start = time.perf_counter()
        total, table, items = 0.0, {}, []
        for i in range(20_000):
            total += (i * 0.5) ** 0.5
            items.append(i & 255)
            table[i & 1023] = total
        for _ in range(400):
            order = np.argsort(values, kind="stable")
            total += float(np.bincount(order & 7, weights=values, minlength=8)[3])
        times.append(time.perf_counter() - start)
    return times[1:]


class Calibrated:
    """A build timed right after the calibration kernel, in its own process.

    The result carries ``calibration = (kernel samples, seconds spent on
    them, seconds spent in the build)``; it rides the runner's transport
    back with the result.
    """

    def __init__(self, build) -> None:
        self.build = build

    def __call__(self, index: int, seed):
        start = time.perf_counter()
        samples = calibration_samples()
        built = time.perf_counter()
        result = self.build(index, seed)
        result.calibration = (samples, built - start, time.perf_counter() - built)
        return result


class Pinned:
    """A build that first pins its process to one CPU: replication ``i`` to
    the ``i``-th of ``cpus``."""

    def __init__(self, build, cpus: tuple[int, ...]) -> None:
        self.build = build
        self.cpus = cpus

    def __call__(self, index: int, seed):
        os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})
        return self.build(index, seed)


def warm_up(build, workers: int, pool) -> None:
    """One short replication per worker: finishes lazy imports and the pool
    fork before timing.  Pool workers are pinned one per CPU here, because
    the scheduler sometimes stacks freshly forked workers on one CPU for
    their first second, halving a round's speed at random."""
    if workers > 1:
        build = Pinned(build, tuple(sorted(os.sched_getaffinity(0))))
    ReplicationRunner(workers, base_seed=0, workers=workers, pool=pool).run_raw(build)


def rep_records(results) -> list[dict]:
    return [
        {
            "host_s": r.worker_profile["build_seconds"],
            "completions": int(r.ledger.num_completed),
            "slowdowns": list(r.per_class_mean_slowdowns()),
            "digest": digest(r),
            "failures": check(r),
        }
        for r in results
    ]


def peak_rss_mb() -> float:
    """max(ru_maxrss of this process, of its waited-for children), in MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def untraced_round(workload: str, seed: int, round_index: int, spawned_at: float) -> dict:
    workers = WORKLOADS[workload].workers
    build = make_build(workload, seed, round_index)
    pool = WorkerPool(workers) if workers > 1 else None
    try:
        warm_up(make_build(workload, seed, round_index, scale=WARMUP_SCALE), workers, pool)
        setup_s = time.perf_counter() - spawned_at
        root = (seed, workload, round_index)
        results, wall_s = replicate(Calibrated(build), root, workers, pool)
    finally:
        if pool is not None:
            pool.close()
    reps = rep_records(results)
    for rep, result in zip(reps, results):
        samples, rep["calibration_s"], rep["host_s"] = result.calibration
        rep["kernel_s"] = statistics.median(samples)
        rep["worker"] = result.worker_profile["worker_pid"]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reps": reps,
        "rss_mb": peak_rss_mb(),
    }


def traced_round(workload: str, seed: int, round_index: int, chrome: Path | None) -> dict:
    build = make_build(workload, seed, round_index)
    warm = make_build(workload, seed, round_index, scale=WARMUP_SCALE)
    root = (seed, workload, round_index)
    warm_up(warm, 1, None)
    serial, _ = replicate(build, root, 1, None)
    # The pool forks before any wrapper is installed, so its pass is untraced.
    pool = WorkerPool(POOL_WORKERS)
    try:
        warm_up(warm, POOL_WORKERS, pool)
        pooled, pool_wall_s = replicate(build, root, POOL_WORKERS, pool)
    finally:
        pool.close()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        start = time.perf_counter_ns()
        traced, _ = replicate(build, root, 1, None)
        traced_ns = time.perf_counter_ns() - start
    finally:
        restore()
    if chrome is not None:
        spans.write_chrome_trace([s for s in tracer.spans if s.rep == 0], chrome)
    reps = rep_records(traced)
    for rep, untraced, transported in zip(reps, rep_records(serial), pooled):
        if rep["digest"] != untraced["digest"]:
            rep["failures"].append("traced digest != untraced digest")
        if digest(transported) != untraced["digest"]:
            rep["failures"].append("pooled digest != serial digest")
        rep["untraced_host_s"] = untraced["host_s"]
    profiles = [r.worker_profile for r in pooled]
    return {
        "reps": reps,
        "traced_ns": traced_ns,
        "layers": spans.layer_totals(tracer.spans),
        "rows": sum(len(r.ledger) for r in traced),
        "admitted_rows": sum(int((r.ledger.disposition != DISPOSITION_SHED).sum()) for r in traced),
        "pool": {
            "workers": POOL_WORKERS,
            "wall_s": pool_wall_s,
            "build_s": sum(p["build_seconds"] for p in profiles),
            "encode_s": sum(p["encode_seconds"] for p in profiles),
            "decode_s": sum(p["decode_seconds"] for p in profiles),
            "payload_bytes": sum(p["payload_bytes"] for p in profiles),
            "shm": sum(p["transport"] == "shm" for p in profiles),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.perf_counter() of the parent just before it spawned this process",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", type=Path, help="write the first replication's spans here")
    args = parser.parse_args(argv)
    if args.trace:
        record = traced_round(args.workload, args.seed, args.round, args.chrome)
    else:
        record = untraced_round(args.workload, args.seed, args.round, args.spawned_at)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
