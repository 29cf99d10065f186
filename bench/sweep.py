"""Run the benchmark over ten seeds and record every result in one set file.

    python3 bench/sweep.py --out bench/out/set.json

Each seed makes one ``run.py --workload all --seed S`` run, so the rounds
of the four workloads interleave (w1r0, w2r0, ..., w1r1, ...), and its
per-workload metrics are split into the set file.  The first two seeds
also get a ``--trace 1`` run for the per-layer split.  ``compare.py``
reads set files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACED_SEEDS = SEEDS[:2]


def machine() -> dict:
    """The fingerprint a set was measured on."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def run(seed: int, trace: int) -> dict:
    """Every workload's metrics of one ``--workload all`` run."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", str(seed)]
    command += ["--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs: dict[str, list] = {}
    traced: dict[str, list] = {}
    for seed in SEEDS:
        passes = [(0, runs)] + ([(1, traced)] if seed in TRACED_SEEDS else [])
        for trace, into in passes:
            for workload, metrics in run(seed, trace).items():
                into.setdefault(workload, []).append({"seed": seed, "metrics": metrics})
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"machine": machine(), "runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
