"""Tests for the TelemetrySummary text table."""

from dataclasses import dataclass

from repro.telemetry import Telemetry, TelemetrySummary


@dataclass
class _FakeResult:
    worker_profile: dict | None = None


class TestTelemetrySummary:
    def build_telemetry(self):
        telemetry = Telemetry()
        registry = telemetry.registry
        registry.counter("scenario.runs").inc()
        registry.set_clock(lambda: 3.0)
        registry.gauge("depth").set(2.0)
        registry.histogram("sizes").observe(4.0)
        return telemetry

    def test_from_run_flattens_instruments(self):
        summary = TelemetrySummary.from_run(self.build_telemetry())
        assert summary.counters == (("scenario.runs", 1),)
        assert summary.gauges == (("depth", 2.0, 1),)
        assert summary.histograms == (("sizes", 1, 4.0, 4.0, 4.0),)
        assert summary.profile == ()

    def test_worker_profile_rows_sorted_and_formatted(self):
        result = _FakeResult(
            worker_profile={"transport": "inline", "build_seconds": 0.25, "payload_bytes": 2048}
        )
        summary = TelemetrySummary.from_run(self.build_telemetry(), result)
        assert summary.profile == (
            ("build_seconds", "0.25"),
            ("payload_bytes", "2048"),
            ("transport", "inline"),
        )

    def test_to_text_sections(self):
        result = _FakeResult(worker_profile={"transport": "serial"})
        text = TelemetrySummary.from_run(self.build_telemetry(), result).to_text()
        assert text.startswith("# telemetry summary")
        for section in ("counters", "gauges", "histograms", "worker profile"):
            assert section in text
        assert "scenario.runs" in text

    def test_empty_summary_placeholder(self):
        text = TelemetrySummary.from_run(Telemetry(enabled=False)).to_text()
        assert "(no instruments recorded)" in text
