#!/usr/bin/env python
"""Dispatch-policy shoot-out on a four-node PSD cluster.

The paper's control loop — estimate the per-class load, re-solve Eq. 17,
push the rates — is substrate-agnostic; `repro.cluster` lets the substrate
be a whole cluster.  This example serves the two-class workload of the
quickstart on four idealised nodes and compares every bundled dispatch
policy at moderate (0.5) and high (0.9) system load:

* all policies preserve the *ratio* between the classes' slowdowns (the
  differentiation target survives clustering), while
* backlog-aware dispatch (join-shortest-queue, least-work-left) pools the
  nodes' queues and crushes the absolute slowdowns at high load.

A second act makes the fleet heterogeneous (a 2:1 capacity mix at the same
total speed) and contrasts capacity-blind dispatch+partitioning — which
overloads the slow nodes — with the capacity-aware pairing that restores
the single-server behaviour.

A third act makes the fleet *dynamic*: the fast node is killed mid-run
(draining its queue before going down) and restored later.  The dispatch
policy and rate partitioner re-normalise over the live nodes at each event,
and the per-window availability/ratio table shows the controller absorbing
the outage and re-converging after the restore.

Run with::

    python examples/cluster_dispatch.py
"""

from __future__ import annotations

import numpy as np

from repro import MeasurementConfig, PsdSpec, Scenario, make_cluster
from repro.cluster import (
    DISPATCH_POLICIES,
    build_partitioner,
    parse_fleet_events,
    resolve_capacities,
)
from repro.distributions import BoundedPareto
from repro.queueing import arrival_rate_for_load
from repro.types import TrafficClass

NUM_NODES = 4

#: Capacity-blind -> capacity-aware pairings for the heterogeneous act.
HETERO_PAIRINGS = (
    ("round_robin", "equal"),
    ("weighted_jsq", "capacity"),
    ("fastest_available", "capacity"),
)


def main() -> None:
    service = BoundedPareto(k=0.1, p=10.0, alpha=1.5)  # moderate tail: fast converge
    spec = PsdSpec.of(1, 2)
    config = MeasurementConfig(
        warmup=2_000.0, horizon=16_000.0, window=1_000.0
    ).scaled_to_time_units(service.mean())

    for load in (0.5, 0.9):
        per_class = arrival_rate_for_load(load, service) / 2
        classes = [
            TrafficClass("gold", per_class, service, delta=1.0),
            TrafficClass("silver", per_class, service, delta=2.0),
        ]
        print(f"system load {load:.0%}, {NUM_NODES} nodes, target ratio 2.0")
        print(f"  {'policy':<16} {'gold':>8} {'silver':>8} {'ratio':>7} {'p95':>8}")
        for name in sorted(DISPATCH_POLICIES):
            cluster = make_cluster(NUM_NODES, name, seed=2004)
            result = Scenario(classes, config, server=cluster, spec=spec, seed=7).run()
            gold, silver = result.per_class_mean_slowdowns()
            slowdowns = result.ledger.slowdowns(result.measured_ids())
            p95 = float(np.percentile(slowdowns, 95)) if slowdowns.size else float("nan")
            print(
                f"  {name:<16} {gold:8.2f} {silver:8.2f} "
                f"{silver / gold:7.2f} {p95:8.2f}"
            )
        print()

    capacities = resolve_capacities("2:1", NUM_NODES)
    load = 0.9
    per_class = arrival_rate_for_load(load, service) / 2
    classes = [
        TrafficClass("gold", per_class, service, delta=1.0),
        TrafficClass("silver", per_class, service, delta=2.0),
    ]
    print(
        f"heterogeneous 2:1 fleet ({NUM_NODES} nodes, same total capacity), "
        f"load {load:.0%}"
    )
    print(f"  {'policy + partitioner':<30} {'gold':>8} {'silver':>8} {'ratio':>7} {'p95':>8}")
    for name, partitioner in HETERO_PAIRINGS:
        cluster = make_cluster(
            NUM_NODES,
            name,
            capacities=capacities,
            partitioner=build_partitioner(partitioner),
            seed=2004,
        )
        result = Scenario(classes, config, server=cluster, spec=spec, seed=7).run()
        gold, silver = result.per_class_mean_slowdowns()
        slowdowns = result.ledger.slowdowns(result.measured_ids())
        p95 = float(np.percentile(slowdowns, 95)) if slowdowns.size else float("nan")
        print(
            f"  {name + ' + ' + partitioner:<30} {gold:8.2f} {silver:8.2f} "
            f"{silver / gold:7.2f} {p95:8.2f}"
        )

    # --- Act 3: dynamic fleet — kill the fast node, drain, restore. ------ #
    time_unit = service.mean()
    fleet = parse_fleet_events("kill:0@7000 restore:0@7400").scaled_to_time_units(time_unit)
    cluster = make_cluster(
        NUM_NODES,
        "weighted_jsq",
        capacities=capacities,
        partitioner=build_partitioner("capacity"),
        fleet=fleet,
        seed=2004,
    )
    result = Scenario(classes, config, server=cluster, spec=spec, seed=7).run()
    monitor = result.monitor
    availability = result.per_node_availability()
    print()
    print(
        "dynamic 2:1 fleet (weighted_jsq + capacity): kill fastest node at "
        "t=7000 tu, restore at t=7400 tu"
    )
    print(f"  {'window (tu)':<16} {'live frac':>10} {'ratio':>7}")
    for sample in monitor.samples():
        index = round((sample.start - monitor.warmup) / monitor.window)
        if index >= len(availability):
            break
        live_fraction = float(availability[index].mean())
        start_tu = sample.start / time_unit
        end_tu = sample.end / time_unit
        print(
            f"  [{start_tu:6.0f},{end_tu:6.0f}) {live_fraction:10.2f} "
            f"{sample.ratio(1, 0):7.2f}"
        )


if __name__ == "__main__":
    main()
