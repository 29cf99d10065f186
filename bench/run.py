"""The repository benchmark: closed-loop replication rounds, one fresh process each.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every workload runs ten rounds of ten replications (n = 100, the paper's
count) back to back: a closed loop, the next starts when the previous one
ends.  ``--seconds`` only caps a workload's wall time: past two rounds, a
workload that has spent it starts no further round.  Rounds interleave across workloads (w1r0, w2r0, ..., w1r1, ...)
and each (workload, round) pair runs in a fresh process (``measure.py``),
so drift on a shared machine hits every workload alike and every round
pays its own set-up.  Round ``r`` of workload ``w`` replays
``SeedSequence((seed, w, r))``, so every commit replays the same
replications.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer split of a separate, serial,
instrumented run of rounds 0-1, and the first replication's spans are
written as a Chrome trace into ``--out``.  The exit code is non-zero when
any replication fails a correctness check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 20040426
#: Rounds of an untraced run.
ROUNDS = 10
#: Rounds of a traced run, and the fewest a ``--seconds`` cap leaves.
MIN_ROUNDS = 2
#: The default ``--seconds``, BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 35.0
#: The calibration kernel's median time on the reference machine (README).
#: End-to-end times are scaled by this over the kernel's time in the same
#: process, so they read as seconds on the reference machine at rest.
REFERENCE_CALIBRATION_S = 5.4e-3
#: A round that has not finished by then is killed and counted as failed
#: (a round takes under ten seconds; a run must end within three minutes).
ROUND_TIMEOUT_S = 60.0
#: Per-layer metrics of the traced run.  The bypassable layers (admission,
#: cluster, partition, autoscale) report no ns_per_req: it would read a
#: constant zero on the workloads that skip them.
TIMED_LAYERS = ("scenario", "generator", "ledger", "server", "controller")
COUNTED_LAYERS = TIMED_LAYERS + ("admission", "cluster", "partition", "autoscale")
SHARE_LAYERS = COUNTED_LAYERS + ("build", "monitor")


def run_round(workload: str, seed: int, round_index: int, trace: bool, chrome: Path | None):
    """Run one round in a fresh process; returns its record, or None if it failed."""
    command = [sys.executable, str(BENCH / "measure.py"), "--workload", workload]
    command += ["--seed", str(seed), "--round", str(round_index)]
    if trace:
        command.append("--trace")
        if chrome is not None:
            command += ["--chrome", str(chrome)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command += ["--spawned-at", repr(time.perf_counter())]
    # Its own process group, so a timeout can stop the round's pool workers too.
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        err += f"\nround timed out after {ROUND_TIMEOUT_S:g} s"
    if child.returncode != 0:
        sys.stderr.write(f"{workload} round {round_index} failed:\n{err}\n")
        return None
    return json.loads(out.strip().splitlines()[-1])


def run_rounds(workloads, seed: int, count: int, seconds: float, trace: bool, out: Path) -> dict:
    """Interleave ``count`` rounds of every workload.

    Past ``MIN_ROUNDS`` rounds, a workload that has spent ``seconds`` starts
    no further round, and neither does one whose round failed.
    """
    rounds = {name: [] for name in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    active = list(workloads)
    for round_index in range(count):
        for name in tuple(active):
            if round_index >= MIN_ROUNDS and spent[name] >= seconds:
                active.remove(name)
                continue
            chrome = out / f"{name}.trace.json" if trace and round_index == 0 else None
            start = time.perf_counter()
            record = run_round(name, seed, round_index, trace, chrome)
            spent[name] += time.perf_counter() - start
            rounds[name].append(record)
            if record is None:
                active.remove(name)
    return rounds


def median(values) -> float:
    return float(statistics.median(values))


def ratio_error(reps: list[dict], deltas: tuple[float, ...]) -> float:
    """max over classes i > 0 of |(S_i / S_1) / (delta_i / delta_1) - 1|, pooled."""
    means = [statistics.fmean(r["slowdowns"][c] for r in reps) for c in range(len(deltas))]
    return max(
        abs((means[c] / means[0]) / (deltas[c] / deltas[0]) - 1.0) for c in range(1, len(deltas))
    )


def runner_seconds(record: dict, scale: float) -> float:
    """A round's runner wall time at reference speed.

    The busiest worker sets the wall.  Its replication seconds are scaled by
    the kernel timed before each replication; the rest of the wall (the
    kernels themselves excluded: dispatch, transport, decode, summary, idle)
    by the round's median ``scale``.
    """
    busy: dict[int, float] = defaultdict(float)
    scaled: dict[int, float] = defaultdict(float)
    for rep in record["reps"]:
        busy[rep["worker"]] += rep["calibration_s"] + rep["host_s"]
        scaled[rep["worker"]] += rep["host_s"] * REFERENCE_CALIBRATION_S / rep["kernel_s"]
    busiest = max(busy, key=busy.get)
    return scaled[busiest] + (record["wall_s"] - busy[busiest]) * scale


def end_to_end(records: list[dict], deltas: tuple[float, ...]) -> tuple[dict, dict]:
    """Gated metrics ``{name: (value, unit, n)}`` and printed-only extras.

    Every time is scaled to the reference machine's speed: a replication's
    host seconds by the calibration kernel timed just before it, set-up
    times by the median over the round's replications, runner wall times
    as :func:`runner_seconds` says.  ``raw_rep_s_p50`` and ``machine_speed``
    show the unscaled numbers.
    """
    reps = [rep for record in records for rep in record["reps"]]
    host = [rep["host_s"] * REFERENCE_CALIBRATION_S / rep["kernel_s"] for rep in reps]
    scales = [
        REFERENCE_CALIBRATION_S / median(rep["kernel_s"] for rep in record["reps"])
        for record in records
    ]
    wall = sum(runner_seconds(record, scale) for record, scale in zip(records, scales))
    n, rounds = len(reps), len(records)
    metrics = {
        "sim_rps": (median(rep["completions"] / h for rep, h in zip(reps, host)), "req/s", n),
        "rep_s_p50": (median(host), "s", n),
        "replications_per_s": (n / wall, "1/s", n),
        "setup_s": (median(r["setup_s"] * s for r, s in zip(records, scales)), "s", rounds),
        "peak_rss_mb": (median(record["rss_mb"] for record in records), "MiB", rounds),
    }
    first_rounds = [rep for record in records[:MIN_ROUNDS] for rep in record["reps"]]
    extras = {
        "raw_rep_s_p50": (median(rep["host_s"] for rep in reps), "s", n),
        "machine_speed": (median(scales), "1", rounds),
        "rep_s_p90": (statistics.quantiles(host, n=10)[-1], "s", n),
        "ratio_error": (ratio_error(reps, deltas), "1", n),
        "result_digest": (digest_of(first_rounds), "sha256", len(first_rounds)),
    }
    return metrics, extras


def digest_of(reps: list[dict]) -> str:
    return hashlib.sha256("".join(rep["digest"] for rep in reps).encode()).hexdigest()[:16]


def layer_total(records: list[dict], layer: str, key: str) -> int:
    return sum(record["layers"].get(layer, {}).get(key, 0) for record in records)


def per_layer(records: list[dict]) -> dict:
    """Per-layer metrics ``{name: (value, unit, n)}`` of the traced rounds.

    Times and counts are summed over the rounds (0-1, which every traced run
    of a seed replays, so the counts repeat exactly across runs).
    """
    reps = [rep for record in records for rep in record["reps"]]
    n = len(reps)
    completions = sum(rep["completions"] for rep in reps)
    traced_ns = sum(record["traced_ns"] for record in records)
    metrics = {}
    for layer in SHARE_LAYERS:
        share = layer_total(records, layer, "self_ns") / traced_ns
        metrics[f"{layer}.share"] = (share, "1", n)
    for layer in TIMED_LAYERS:
        ns = layer_total(records, layer, "self_ns") / completions
        metrics[f"{layer}.ns_per_req"] = (ns, "ns/req", n)
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls_per_rep"] = (layer_total(records, layer, "calls") / n, "count", n)
    rows = sum(record["rows"] for record in records)
    admitted = sum(record["admitted_rows"] for record in records)
    drains = layer_total(records, "server", "counted")  # drain is the server's counted entry
    scalar_rows = layer_total(records, "cluster", "items")
    pool = [record["pool"] for record in records]
    pool_capacity_s = sum(p["workers"] * p["wall_s"] for p in pool)
    traced_rps = median(r["completions"] / r["host_s"] for r in reps)
    untraced_rps = median(r["completions"] / r["untraced_host_s"] for r in reps)
    metrics |= {
        "ledger.rows_per_rep": (rows / n, "count", n),
        "admission.accept_ratio": (admitted / rows, "1", n),
        "cluster.scalar_rows_ratio": (scalar_rows / admitted, "1", n),
        "server.drains_per_rep": (drains / n, "count", n),
        "server.drain_yield": (layer_total(records, "server", "yielding") / drains, "1", n),
        "autoscale.events_per_rep": (layer_total(records, "autoscale", "items") / n, "count", n),
        "runner.encode_ms": (1e3 * sum(p["encode_s"] for p in pool) / n, "ms", n),
        "runner.decode_ms": (1e3 * sum(p["decode_s"] for p in pool) / n, "ms", n),
        "runner.payload_mb": (sum(p["payload_bytes"] for p in pool) / n / 2**20, "MiB", n),
        "runner.shm_ratio": (sum(p["shm"] for p in pool) / n, "1", n),
        "runner.overhead_share": (1.0 - sum(p["build_s"] for p in pool) / pool_capacity_s, "1", n),
        "trace.overhead": (1.0 - traced_rps / untraced_rps, "1", n),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a name from workloads.py, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="cap on each workload's wall time (two rounds always run)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=BENCH / "out", help="where --trace 1 writes Chrome traces"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no repro package under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REPLICATIONS_PER_ROUND, WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workloads = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    count = MIN_ROUNDS if args.trace else ROUNDS
    rounds = run_rounds(workloads, args.seed, count, args.seconds, bool(args.trace), args.out)

    attempted = failed = 0
    results = {}
    print(f"{'workload':<20} {'metric':<26} {'value':>14} {'unit':<7} n")
    for name in workloads:
        records = [record for record in rounds[name] if record is not None]
        lost = len(rounds[name]) - len(records)
        reps = [rep for record in records for rep in record["reps"]]
        attempted += REPLICATIONS_PER_ROUND * lost + len(reps)
        failed += REPLICATIONS_PER_ROUND * lost + sum(1 for rep in reps if rep["failures"])
        for rep in reps:
            for failure in rep["failures"]:
                sys.stderr.write(f"{name}: {failure}\n")
        if not records:
            continue
        if args.trace:
            metrics, extras = per_layer(records), {}
        else:
            metrics, extras = end_to_end(records, WORKLOADS[name].deltas)
        for metric, (value, unit, n) in {**metrics, **extras}.items():
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"{name:<20} {metric:<26} {shown:>14} {unit:<7} {n}")
        results[name] = {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}
    summary = {
        "correct": failed == 0 and len(results) == len(workloads),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": results[workloads[0]] if len(workloads) == 1 and results else results,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
