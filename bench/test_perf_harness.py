"""Tests of the benchmark harness itself, on shortened workloads (seconds, not minutes)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import measure
import numpy as np
import pytest
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
#: Shortened horizons keep every layer busy for a few windows.
SCALE = 0.05


def _short_build(workload, seed, round_index, scale=1.0):
    return workloads.make_build(workload, seed, round_index, scale=scale * SCALE)


@pytest.fixture
def short_builds(monkeypatch):
    """Route the harness's builds through shortened horizons."""
    monkeypatch.setattr(measure, "make_build", _short_build)


def test_self_time_subtracts_exactly_the_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", "inner", lambda n: sum(range(n)), count=lambda a, r: a[0])

    def body():
        return inner(20_000) + inner(0)

    outer = tracer.wrap("outer", "outer", body)
    nested = tracer.wrap("outer", "nested", lambda: outer())
    nested()
    by_name = {s.name: s for s in tracer.spans if s.name != "inner"}
    children = [s for s in tracer.spans if s.name == "inner"]
    assert [s.parent for s in children] == [by_name["outer"].id] * 2
    assert by_name["outer"].child_ns == sum(s.end - s.start for s in children)
    assert by_name["outer"].self_ns == (
        by_name["outer"].end - by_name["outer"].start - by_name["outer"].child_ns
    )
    assert by_name["nested"].child_ns == by_name["outer"].end - by_name["outer"].start
    totals = spans.layer_totals(tracer.spans)
    # A same-layer child is a nested call, not a second call of the layer.
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_ns"] == by_name["outer"].self_ns + by_name["nested"].self_ns
    assert totals["inner"] == {
        "self_ns": sum(s.self_ns for s in children),
        "calls": 2,
        "counted": 2,
        "items": 20_000,
        "yielding": 1,
    }
    wall = by_name["nested"].end - by_name["nested"].start
    assert sum(t["self_ns"] for t in totals.values()) == wall


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_replication_matches_untraced(workload):
    build = workloads.make_build(workload, 7, 0, scale=SCALE)
    # A fresh seed per run: SeedSequence.spawn is stateful.
    untraced = build(0, workloads.round_seed(7, workload, 0))
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        traced = build(0, workloads.round_seed(7, workload, 0))
    finally:
        restore()
    assert measure.digest(traced) == measure.digest(untraced)
    assert measure.check(traced) == []
    layers = {s.layer for s in tracer.spans}
    assert {"build", "scenario", "generator", "ledger", "server", "controller"} <= layers
    assert ("admission" in layers) == (workload == "overload_quota")
    assert ("autoscale" in layers) == (workload == "autoscale_diurnal")
    assert ("cluster" in layers) == (workload != "paper_single")


def test_instrument_restores_every_entry_point():
    from repro.cluster.model import ClusterServerModel
    from repro.simulation.scenario import Scenario

    before = (Scenario.run, ClusterServerModel.drain)
    spans.instrument(spans.Tracer())()
    assert (Scenario.run, ClusterServerModel.drain) == before


def test_check_flags_a_broken_invariant():
    result = workloads.make_build("overload_quota", 3, 0, scale=SCALE)(
        0, workloads.round_seed(3, "overload_quota", 0)
    )
    assert measure.check(result) == []
    result.rejected_counts = tuple(n + 1 for n in result.rejected_counts)
    assert measure.check(result) == ["generated != completed + shed + unfinished"]


def _names(section: str) -> set[str]:
    return {metric["name"] for metric in BENCHMARK[section]}


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in BENCHMARK[s]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert "setup_s" in _names("end_to_end")


def test_harness_emits_exactly_the_declared_metrics(short_builds):
    untraced = measure.untraced_round("paper_single", 5, 0, spawned_at=0.0)
    assert all(rep["failures"] == [] for rep in untraced["reps"])
    gated, _ = run.end_to_end([untraced], workloads.WORKLOADS["paper_single"].deltas)
    assert set(gated) == _names("end_to_end")
    assert all(value > 0 for value, _, _ in gated.values())

    traced = measure.traced_round("overload_quota", 5, 0, chrome=None)
    assert all(rep["failures"] == [] for rep in traced["reps"])
    layered = run.per_layer([traced])
    assert set(layered) == _names("per_layer")
    shares = sum(v for name, (v, _, _) in layered.items() if name.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=0.02)


def test_chrome_trace_is_written_for_the_first_replication(tmp_path):
    tracer = spans.Tracer()
    tracer.rep = 0
    tracer.wrap("scenario", "outer", lambda: None)()
    path = tmp_path / "out" / "w.trace.json"
    spans.write_chrome_trace(tracer.spans, path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"], e["args"]["rep"]) for e in events] == [("outer", "X", 0)]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 0.85 for v in STEADY], "higher", "worse"),
        ([v * 1.15 for v in STEADY], "lower", "worse"),
        ([v * 0.98 for v in STEADY], "higher", "within"),
        ([v * 1.2 for v in STEADY], "higher", "better"),
        ([v * 0.96 for v in STEADY], "lower", "better"),
    ],
)
def test_compare_verdicts(change, better, expected):
    assert compare.verdict(STEADY, change, better, 0.1) == expected


def test_compare_reports_unresolved_when_the_parent_spread_exceeds_the_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(wide, [v * 0.8 for v in wide], "higher", 0.1) == "unresolved"


def _set_file(path: Path, scale: float) -> Path:
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    runs = [
        {"seed": seed, "metrics": {name: {"value": value * scale} for name in metrics}}
        for seed, value in enumerate(STEADY)
    ]
    runs = {w["name"]: runs for w in BENCHMARK["workloads"]}
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    parent = _set_file(tmp_path / "parent.json", 1.0)
    assert compare.main([str(parent), str(_set_file(tmp_path / "same.json", 1.0))]) == 0
    # Every value rises by 30%, so the lower-is-better metrics regress.
    assert compare.main([str(parent), str(_set_file(tmp_path / "slow.json", 1.3))]) == 1
    assert "worse" in capsys.readouterr().out


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_single", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_rounds_interleave_and_the_cap_only_trims_past_two(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(run, "run_round", lambda w, s, r, t, c: calls.append((w, r)) or {})
    rounds = run.run_rounds(("a", "b"), 1, run.ROUNDS, 1e9, False, tmp_path)
    assert calls == [(w, r) for r in range(run.ROUNDS) for w in ("a", "b")]
    assert [len(rounds[w]) for w in ("a", "b")] == [run.ROUNDS] * 2
    assert len(run.run_rounds(("a",), 1, run.ROUNDS, 0.0, False, tmp_path)["a"]) == run.MIN_ROUNDS


def test_round_seeds_are_distinct_per_workload_and_round():
    states = {
        tuple(workloads.round_seed(1, w, r).generate_state(2))
        for w in workloads.WORKLOADS
        for r in range(3)
    }
    assert len(states) == 3 * len(workloads.WORKLOADS)
    assert np.array_equal(
        workloads.round_seed(1, "paper_single", 0).generate_state(2),
        workloads.round_seed(1, "paper_single", 0).generate_state(2),
    )
