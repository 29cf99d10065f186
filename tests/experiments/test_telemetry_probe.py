"""Tests for the --telemetry probe and its CLI wiring."""

import json

import numpy as np
import pytest

from repro.experiments.config import get_preset
from repro.experiments.telemetry_probe import PROBE_NODES, run_telemetry_probe

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


class TestRunTelemetryProbe:
    def test_probe_collects_every_exporter(self, tmp_path):
        probe = run_telemetry_probe(get_preset("quick"), out_dir=tmp_path)
        assert probe.result.fleet_timeline is not None
        assert probe.trace_events
        assert probe.snapshots
        assert all(len(row["availability"]) == PROBE_NODES for row in probe.snapshots)
        # The default schedule kills a node mid-run: some window sees it.
        assert any(min(row["availability"]) < 1.0 for row in probe.snapshots)
        # Artifacts on disk: valid Chrome trace JSON + one row per metric /
        # window in the JSONL streams.
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"
        metrics = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert metrics and all(json.loads(line)["name"] for line in metrics)
        health = [json.loads(line) for line in (tmp_path / "health.jsonl").read_text().splitlines()]
        assert health == probe.snapshots

    def test_probe_availability_matches_monitor(self):
        probe = run_telemetry_probe(get_preset("quick"))
        series = probe.result.per_node_availability()
        assert len(probe.snapshots) == series.shape[0]
        for window, row in enumerate(probe.snapshots):
            assert row["window"] == window
            assert row["availability"] == series[window].tolist()

    def test_backlogs_are_the_table_row_at_the_window_end(self):
        probe = run_telemetry_probe(get_preset("quick"))
        table = probe.result.window_table
        for row in probe.snapshots:
            # Window ends are boundaries, up to float jitter.
            (at,) = np.flatnonzero(np.isclose(table.time, row["end"], rtol=0.0, atol=1e-6))
            assert row["backlogs"] == table.node_backlog[at].tolist()

    def test_utilisation_is_assigned_rate_over_capacity(self):
        probe = run_telemetry_probe(get_preset("quick"))
        capacities = probe.result.fleet_timeline[0][2]
        assert len(set(capacities)) == 2  # the probe's 2:1 fleet
        live = 0
        for row in probe.snapshots:
            for node, capacity in enumerate(capacities):
                if row["availability"][node] == 1.0:
                    live += 1
                    expected = row["assigned_rates"][node] / capacity
                    assert row["utilisation"][node] == pytest.approx(expected)
            # A node down for the whole window was assigned nothing.
            for node, fraction in enumerate(row["availability"]):
                if fraction == 0.0:
                    assert row["assigned_rates"][node] == row["utilisation"][node] == 0.0
        assert live

    def test_to_text_sections(self):
        probe = run_telemetry_probe(get_preset("quick"))
        text = probe.to_text()
        assert "# telemetry summary" in text
        assert "# cluster health" in text
        assert not probe.paths  # nothing written without an out dir

    def test_probe_respects_config_fleet_events(self):
        config = get_preset("quick").with_cluster(fleet_events=("kill:0@1000", "restore:0@2000"))
        probe = run_telemetry_probe(config)
        # The custom schedule targets node 0 (the default schedule kills 1).
        dead_nodes = {
            node
            for row in probe.snapshots
            for node, fraction in enumerate(row["availability"])
            if fraction == 0.0
        }
        assert dead_nodes == {0}


class TestCommandLineFlags:
    def test_telemetry_out_requires_telemetry(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--preset", "quick", "--only", "fig7", "--telemetry-out", "x"])

    def test_unknown_log_level_is_a_parser_error(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--preset", "quick", "--only", "fig7", "--log-level", "NOISY"])

    def test_telemetry_flag_prints_summary_and_writes_artifacts(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "telemetry"
        code = main(
            [
                "--preset",
                "quick",
                "--only",
                "fig7",
                "--telemetry",
                "--telemetry-out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# telemetry summary" in captured.out
        assert "# cluster health" in captured.out
        for name in ("trace.json", "metrics.jsonl", "health.jsonl"):
            assert (out / name).exists()
