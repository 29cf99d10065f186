"""Tests for arrival-log I/O: loading into TraceSources, capturing runs back out."""

import math

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.errors import ParameterError
from repro.simulation import (
    MeasurementConfig,
    RequestLedger,
    Scenario,
    load_trace,
    save_trace,
    trace_sources_from_arrays,
)
from repro.types import TrafficClass

#: Every run also passes the run-end invariants (tests/invariants.py).
pytestmark = pytest.mark.usefixtures("checked_runs")


def write_csv(path, rows, header="class_index,arrival_time,size"):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SAMPLE_ROWS = [
    (0, 1.0, 2.0),
    (1, 1.5, 0.5),
    (0, 3.0, 1.0),
    (1, 4.5, 0.25),
]


class TestLoadTrace:
    def test_csv_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "trace.csv", SAMPLE_ROWS)
        sources = load_trace(path)
        assert len(sources) == 2
        assert len(sources[0]) == 2 and len(sources[1]) == 2
        # Per-class gaps: first gap is the absolute arrival time.
        assert sources[0].next_interarrival() == pytest.approx(1.0)
        assert sources[0].next_size() == pytest.approx(2.0)
        assert sources[0].next_interarrival() == pytest.approx(2.0)
        assert sources[1].next_interarrival() == pytest.approx(1.5)

    def test_npz_round_trip(self, tmp_path):
        path = tmp_path / "trace.npz"
        np.savez(
            path,
            class_index=np.array([r[0] for r in SAMPLE_ROWS]),
            arrival_time=np.array([r[1] for r in SAMPLE_ROWS]),
            size=np.array([r[2] for r in SAMPLE_ROWS]),
        )
        sources = load_trace(path)
        assert [len(s) for s in sources] == [2, 2]
        assert sources[1].next_interarrival() == pytest.approx(1.5)
        assert sources[1].next_size() == pytest.approx(0.5)

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "trace.parquet"
        path.write_text("x")
        with pytest.raises(ParameterError, match="unsupported trace format"):
            load_trace(path)

    def test_missing_csv_column_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "trace.csv",
            [(0, 1.0)],
            header="class_index,arrival_time",
        )
        with pytest.raises(ParameterError, match="missing columns"):
            load_trace(path)

    def test_missing_npz_array_rejected(self, tmp_path):
        path = tmp_path / "trace.npz"
        np.savez(path, class_index=np.array([0]), arrival_time=np.array([1.0]))
        with pytest.raises(ParameterError, match="missing arrays"):
            load_trace(path)

    def test_single_row_csv(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", [(0, 2.5, 1.0)])
        sources = load_trace(path)
        assert len(sources) == 1
        assert sources[0].next_interarrival() == pytest.approx(2.5)

    def test_loaded_trace_drives_a_scenario(self, tmp_path):
        path = write_csv(tmp_path / "trace.csv", SAMPLE_ROWS)
        classes = (
            TrafficClass("a", 1.0, Deterministic(1.0), 1.0),
            TrafficClass("b", 1.0, Deterministic(1.0), 2.0),
        )
        config = MeasurementConfig(warmup=0.0, horizon=50.0, window=10.0)
        result = Scenario(classes, config, sources=load_trace(path)).run()
        assert result.generated_counts == (2, 2)
        assert result.completed_counts == (2, 2)


class TestTraceSourcesFromArrays:
    def test_pads_absent_classes(self):
        sources = trace_sources_from_arrays(
            np.array([2, 2]), np.array([1.0, 2.0]), np.array([1.0, 1.0])
        )
        assert len(sources) == 3
        assert math.isinf(sources[0].next_interarrival())
        assert len(sources[2]) == 2

    def test_explicit_num_classes_pads(self):
        sources = trace_sources_from_arrays(
            np.array([0]), np.array([1.0]), np.array([1.0]), num_classes=4
        )
        assert len(sources) == 4

    def test_num_classes_too_small_rejected(self):
        with pytest.raises(ParameterError, match="num_classes"):
            trace_sources_from_arrays(
                np.array([3]), np.array([1.0]), np.array([1.0]), num_classes=2
            )

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ParameterError, match="not sorted"):
            trace_sources_from_arrays(np.array([0, 0]), np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_sorting_is_per_class(self):
        # Interleaved classes may look unsorted globally; per class they are.
        sources = trace_sources_from_arrays(
            np.array([0, 1, 0]),
            np.array([1.0, 0.5, 2.0]),
            np.array([1.0, 1.0, 1.0]),
        )
        assert len(sources[0]) == 2 and len(sources[1]) == 1

    def test_negative_class_rejected(self):
        with pytest.raises(ParameterError, match="class_index"):
            trace_sources_from_arrays(np.array([-1]), np.array([1.0]), np.array([1.0]))

    def test_non_integer_class_rejected(self):
        # Catches swapped columns instead of silently binning 1.7 -> class 1.
        with pytest.raises(ParameterError, match="non-integer"):
            trace_sources_from_arrays(
                np.array([0.0, 1.7]), np.array([1.0, 2.0]), np.array([1.0, 1.0])
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError, match="same length"):
            trace_sources_from_arrays(np.array([0]), np.array([1.0, 2.0]), np.array([1.0]))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ParameterError, match="arrival_time"):
            trace_sources_from_arrays(np.array([0]), np.array([-1.0]), np.array([1.0]))

    def test_empty_trace_yields_one_silent_source(self):
        sources = trace_sources_from_arrays(np.array([], dtype=int), np.array([]), np.array([]))
        assert len(sources) == 1
        assert math.isinf(sources[0].next_interarrival())


class TestSaveTrace:
    def make_scenario(self):
        service = Deterministic(0.4)
        classes = (
            TrafficClass("a", 0.8, service, 1.0),
            TrafficClass("b", 0.5, service, 2.0),
        )
        cfg = MeasurementConfig(warmup=20.0, horizon=200.0, window=20.0)
        return Scenario(classes, cfg, seed=42)

    def run_scenario(self):
        return self.make_scenario().run()

    @pytest.mark.parametrize("extension", ["csv", "npz"])
    def test_round_trip_through_load_trace(self, tmp_path, extension):
        """save_trace -> load_trace reproduces the run's arrival sequence
        bit-for-bit, per class."""
        result = self.run_scenario()
        path = save_trace(tmp_path / f"capture.{extension}", result)
        sources = load_trace(path, num_classes=len(result.classes))
        ledger = result.ledger
        for c, source in enumerate(sources):
            mask = ledger.class_index == c
            arrivals = ledger.arrival_time[mask]
            sizes = ledger.size[mask]
            assert len(source) == arrivals.size
            np.testing.assert_array_equal(source._interarrivals, np.diff(arrivals, prepend=0.0))
            np.testing.assert_array_equal(source._sizes, sizes)

    def test_replaying_a_capture_reproduces_the_run(self, tmp_path):
        """A captured run replayed through a fresh scenario yields the same
        arrivals, completions and slowdowns (same classes and controller)."""
        result = self.run_scenario()
        path = save_trace(tmp_path / "capture.csv", result)
        replay = Scenario(
            result.classes,
            result.config,
            sources=load_trace(path, num_classes=len(result.classes)),
        ).run()
        assert replay.completed_counts == result.completed_counts
        np.testing.assert_array_equal(replay.ledger.arrival_time, result.ledger.arrival_time)
        assert replay.per_class_mean_slowdowns() == result.per_class_mean_slowdowns()

    def test_accepts_ledger_scenario_and_result(self, tmp_path):
        """Every artefact carrying a ledger is accepted as a source."""
        ledger = RequestLedger(2)
        ledger.append(0, 1.0, 2.0)
        ledger.append(1, 1.5, 0.5)
        path = save_trace(tmp_path / "direct.npz", ledger)
        assert [len(s) for s in load_trace(path)] == [1, 1]
        scenario = self.make_scenario()
        result = scenario.run()
        for name, artefact in [("result", result), ("scenario", scenario)]:
            loaded = load_trace(save_trace(tmp_path / f"{name}.csv", artefact))
            assert sum(len(s) for s in loaded) == len(result.ledger)

    def test_sourceless_object_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="arrival columns"):
            save_trace(tmp_path / "x.csv", object())

    def test_unsupported_extension_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unsupported trace format"):
            save_trace(tmp_path / "x.parquet", RequestLedger(1))


class TestBundledSampleTrace:
    def test_examples_sample_trace_loads(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "data", "sample_trace.csv"
        )
        sources = load_trace(path)
        assert len(sources) == 2
        assert all(len(source) > 100 for source in sources)
