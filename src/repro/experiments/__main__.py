"""Command-line entry point: regenerate the experiment report.

Examples
--------
Run every figure with the default preset, all cores, and write
EXPERIMENTS.md::

    python -m repro.experiments --preset default --workers 0 --output EXPERIMENTS.md

Run a subset quickly and print the tables to stdout::

    python -m repro.experiments --preset quick --only fig2 fig9

Sweep the cluster extension over a custom grid::

    python -m repro.experiments --preset quick --only cluster \
        --cluster-nodes 2 8 --dispatch jsq weighted_random

Heterogeneous fleet: relative node speeds (or named mixes) for the
capacity-aware section of the cluster experiment::

    python -m repro.experiments --preset quick --only cluster --capacities 2 1
    python -m repro.experiments --preset default --only cluster \
        --capacities 2:1 pow2

Dynamic fleet: kill the fast node mid-run and restore it (times in the
paper's abstract time units; grammar of
:func:`repro.cluster.parse_fleet_events`)::

    python -m repro.experiments --preset default --only cluster \
        --fleet-events kill:0@8000 restore:0@8200

Overload extension: offered load past capacity, quota-reserve admission
against an admission-blind baseline (``--admission`` / ``--admission-args``
steer the defended cell)::

    python -m repro.experiments --preset quick --only overload
    python -m repro.experiments --preset default --only overload \
        --admission quota --admission-args quota_shares=0.3,0.5 \
        target_utilisation=0.9

Autoscaling extension: scaler policies vs a static peak fleet under
diurnal + flash-crowd load (``--autoscaler`` / ``--autoscaler-args`` pin
the sweep to one tuned policy)::

    python -m repro.experiments --preset quick --only autoscale
    python -m repro.experiments --preset default --only autoscale \
        --autoscaler target_tracking --autoscaler-args target=0.8 \
        scale_in_cooldown=2000

Profile a run (top 25 functions by cumulative time, raw stats optional)::

    python -m repro.experiments --preset quick --only fig2 \
        --profile --profile-out fig2.pstats

Telemetry: append an instrumented cluster-churn probe to the run, print its
metric summary, and export the Chrome trace / metric stream / per-window
cluster health to a directory (see README's Observability section)::

    python -m repro.experiments --preset quick --only cluster \
        --telemetry --telemetry-out telemetry/

Structured engine logs (fleet transitions, dispatch changes, worker-pool
re-forks and retries) go to stderr at the chosen level::

    python -m repro.experiments --preset quick --only cluster --log-level DEBUG
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cluster import ADMISSION_POLICIES, AUTOSCALERS, CAPACITY_MIXES, DISPATCH_POLICIES
from ..errors import ExperimentError
from .config import get_preset
from .registry import available_experiments, run_all
from .report import write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and write the EXPERIMENTS.md report.",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=("paper", "default", "quick"),
        help="measurement preset (paper = full Sec. 4.1 protocol, slow)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="FIG",
        help=f"subset of experiments to run (default: all of {', '.join(available_experiments())})",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the markdown report to this path (default: print text tables)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per replication batch (0 = auto-size to the "
        "CPU count); results are identical for every value",
    )
    parser.add_argument(
        "--cluster-nodes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="node counts swept by the 'cluster' experiment "
        "(default: the preset's grid)",
    )
    parser.add_argument(
        "--dispatch",
        nargs="+",
        default=None,
        metavar="POLICY",
        choices=sorted(DISPATCH_POLICIES),
        help="dispatch policies swept by the 'cluster' experiment "
        f"(choices: {', '.join(sorted(DISPATCH_POLICIES))})",
    )
    parser.add_argument(
        "--capacities",
        nargs="+",
        default=None,
        metavar="SPEED|MIX",
        help="heterogeneous section of the 'cluster' experiment: either one "
        "relative speed per node (e.g. '--capacities 2 1' for a two-node "
        "2:1 fleet) or named capacity mixes "
        f"(choices: {', '.join(sorted(CAPACITY_MIXES))})",
    )
    parser.add_argument(
        "--fleet-events",
        nargs="+",
        default=None,
        metavar="EVENT",
        help="churn section of the 'cluster' experiment: fleet events in "
        "'action:node@time' form (times in abstract time units), e.g. "
        "'kill:0@8000 restore:0@8200' or 'set_capacity:1=0.25@5000'",
    )
    parser.add_argument(
        "--admission",
        default=None,
        metavar="POLICY",
        choices=sorted(ADMISSION_POLICIES),
        help="admission policy of the 'overload' sweep's admission cells (no "
        "other experiment reads it) "
        f"(choices: {', '.join(sorted(ADMISSION_POLICIES))})",
    )
    parser.add_argument(
        "--admission-args",
        nargs="+",
        default=None,
        metavar="KEY=VALUE",
        help="constructor arguments for --admission in key=value form, "
        "comma-separated values become tuples (e.g. "
        "'quota_shares=0.45,0.45 target_utilisation=0.9')",
    )
    parser.add_argument(
        "--autoscaler",
        default=None,
        metavar="POLICY",
        choices=sorted(AUTOSCALERS),
        help="pin the 'autoscale' experiment's sweep to one scaler policy "
        f"(choices: {', '.join(sorted(AUTOSCALERS))}; default: sweep all)",
    )
    parser.add_argument(
        "--autoscaler-args",
        nargs="+",
        default=None,
        metavar="KEY=VALUE",
        help="constructor arguments for --autoscaler in key=value form "
        "(e.g. 'target=0.85 scale_in_cooldown=2000 bands=0.9:1,1.3:2')",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="N",
        help="profile the run with cProfile and print the top N functions "
        "by cumulative time (default N=25); use --workers 1 so the work "
        "stays in the profiled process",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="with --profile, also dump raw cProfile stats to PATH "
        "(inspect with 'python -m pstats PATH')",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="run an instrumented cluster-churn probe after the experiments "
        "and print its telemetry summary (metrics, fleet health, trace)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="with --telemetry, write trace.json (Chrome trace-event JSON), "
        "metrics.jsonl and health.jsonl into DIR",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="emit the engine's structured logs (fleet transitions, dispatch "
        "changes, worker-pool re-forks and retries) to stderr at LEVEL "
        "(DEBUG/INFO/WARNING/...)",
    )
    args = parser.parse_args(argv)
    if args.profile is not None and args.profile <= 0:
        parser.error("--profile expects a positive number of rows")
    if args.profile_out is not None and args.profile is None:
        parser.error("--profile-out requires --profile")
    if args.telemetry_out is not None and not args.telemetry:
        parser.error("--telemetry-out requires --telemetry")
    if args.admission_args is not None and args.admission is None:
        parser.error("--admission-args requires --admission")
    if args.autoscaler_args is not None and args.autoscaler is None:
        parser.error("--autoscaler-args requires --autoscaler")
    if args.log_level is not None:
        from ..telemetry import configure_logging

        try:
            configure_logging(args.log_level)
        except ValueError as error:
            parser.error(str(error))
    capacity_mixes = None
    if args.capacities is not None:
        try:
            capacity_mixes = (tuple(float(token) for token in args.capacities),)
        except ValueError:
            capacity_mixes = tuple(args.capacities)
        else:
            from ..cluster import resolve_capacities
            from ..errors import SimulationError

            # Fail loudly instead of silently skipping the heterogeneous
            # section: all-equal speeds resolve to the uniform fleet, which
            # the homogeneous sweep already covers.
            try:
                resolved = resolve_capacities(capacity_mixes[0], len(capacity_mixes[0]))
            except SimulationError as error:
                parser.error(str(error))
            if resolved is None:
                parser.error(
                    "--capacities resolved to a uniform fleet (all node speeds "
                    "equal); the heterogeneous section needs at least two "
                    "distinct speeds, e.g. --capacities 2 1"
                )
    try:
        config = get_preset(args.preset).with_workers(args.workers)
        if (
            args.cluster_nodes is not None
            or args.dispatch is not None
            or capacity_mixes is not None
            or args.fleet_events is not None
        ):
            config = config.with_cluster(
                nodes=args.cluster_nodes,
                policies=args.dispatch,
                capacity_mixes=capacity_mixes,
                fleet_events=args.fleet_events,
            )
        if args.admission is not None:
            config = config.with_admission(args.admission, args.admission_args)
        if args.autoscaler is not None:
            config = config.with_autoscaler(args.autoscaler, args.autoscaler_args)
    except ExperimentError as error:
        parser.error(str(error))

    started = time.time()
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            results = run_all(preset=args.preset, config=config, only=args.only)
        finally:
            profiler.disable()
            if args.profile_out:
                profiler.dump_stats(args.profile_out)
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(args.profile)
    else:
        results = run_all(preset=args.preset, config=config, only=args.only)
    elapsed = time.time() - started

    if args.output:
        path = write_report(results, args.output)
        print(f"wrote {path} ({len(results)} experiments, {elapsed:.1f}s)")
    else:
        for result in results:
            print(result.to_text())
            print()
        print(f"# completed {len(results)} experiments in {elapsed:.1f}s")

    if args.telemetry:
        from .telemetry_probe import run_telemetry_probe

        probe = run_telemetry_probe(config, out_dir=args.telemetry_out)
        print()
        print(probe.to_text())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
