"""Unit tests for phase spans, recorders, and the JSONL run-file schema."""

import json

import pytest

from repro.obs import (
    JsonlRecorder,
    NullRecorder,
    Obs,
    ObsConfig,
    Span,
    phase,
    validate_run_file,
)
from repro.obs import spans as obs_spans
from repro.obs.export import SCHEMA_VERSION, load_run_file
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NOOP_SPAN
from tests.conftest import BufferRecorder


class TestSpan:
    def test_measures_wall_and_cpu(self):
        with Span("work") as span:
            sum(range(1000))
        assert span.wall_s is not None and span.wall_s >= 0.0
        assert span.cpu_s is not None and span.cpu_s >= 0.0

    def test_nesting_depth_and_parent(self):
        rec = BufferRecorder()
        with Span("outer", recorder=rec):
            with Span("inner", recorder=rec):
                pass
        inner, outer = rec.spans
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
        assert inner.seq > outer.seq  # open order

    def test_cpu_clock_unavailable_yields_none(self, monkeypatch):
        monkeypatch.setattr(obs_spans, "CPU_CLOCK", None)
        with Span("work") as span:
            pass
        assert span.wall_s is not None
        assert span.cpu_s is None
        assert span.row()["cpu_s"] is None

    def test_row_schema_keys(self):
        with Span("x", epoch=3, engine="epoch") as span:
            pass
        row = span.row()
        assert row["type"] == "span"
        assert row["labels"] == {"epoch": 3, "engine": "epoch"}
        assert set(row) >= {"name", "labels", "seq", "depth", "parent", "wall_s", "cpu_s"}

    def test_exception_unwinds_stack(self):
        with pytest.raises(RuntimeError):
            with Span("outer"):
                with Span("inner"):
                    raise RuntimeError("boom")
        with Span("after") as span:
            pass
        assert span.depth == 0  # stack fully unwound


class TestPhase:
    def test_off_path_is_shared_noop(self):
        assert phase(None, "anything") is NOOP_SPAN
        with phase(None, "anything") as span:
            assert span.wall_s is None

    def test_measure_without_obs_times_without_recording(self):
        with phase(None, "timed", measure=True) as span:
            pass
        assert span is not NOOP_SPAN
        assert span.cpu_s is not None or obs_spans.CPU_CLOCK is None

    def test_metrics_level_obs_does_not_record_spans(self):
        obs = Obs.create(ObsConfig(level="metrics"))
        assert phase(obs, "x") is NOOP_SPAN

    def test_spans_level_obs_records(self, tmp_path):
        obs = Obs.create(
            ObsConfig(level="spans", jsonl_path=str(tmp_path / "r.jsonl"))
        )
        with phase(obs, "x", epoch=0):
            pass
        obs.export()
        rows = load_run_file(tmp_path / "r.jsonl")
        assert [r["name"] for r in rows if r["type"] == "span"] == ["x"]


class TestRecorders:
    def test_null_recorder_drops(self):
        rec = NullRecorder()
        with Span("x", recorder=rec):
            pass  # nothing to assert beyond "no error, no storage"
        assert not hasattr(rec, "spans")

    def test_obs_create_off_is_none(self):
        assert Obs.create(ObsConfig(level="off")) is None
        assert Obs.create(None) is None

    def test_export_without_a_run_file_writes_nothing(self):
        assert Obs.create(ObsConfig(level="metrics")).export() is None

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            ObsConfig(level="verbose")


class TestJsonlSchema:
    def _emit(self, tmp_path, n_spans=2):
        rec = JsonlRecorder(tmp_path / "run.jsonl", "t", config={"k": 1})
        for i in range(n_spans):
            with Span(f"s{i}", recorder=rec):
                pass
        reg = MetricsRegistry()
        reg.counter("c", 2, engine="epoch")
        reg.observe("h", 1.0)
        rec.export(reg)
        return tmp_path / "run.jsonl"

    def test_round_trip_valid(self, tmp_path):
        path = self._emit(tmp_path)
        assert validate_run_file(path) == []
        rows = load_run_file(path)
        assert rows[0]["type"] == "run" and rows[0]["schema"] == SCHEMA_VERSION
        assert rows[-1] == {"type": "summary", "n_spans": 2, "n_metrics": 2}

    def test_nan_becomes_null(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "run.jsonl", "t")
        reg = MetricsRegistry()
        reg.gauge("g", float("nan"))
        rec.export(reg)
        rows = load_run_file(tmp_path / "run.jsonl")
        gauge = next(r for r in rows if r.get("kind") == "gauge")
        assert gauge["value"] is None

    def test_truncated_file_detected(self, tmp_path):
        path = self._emit(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary
        assert any("summary" in p for p in validate_run_file(path))

    def test_miscounted_summary_detected(self, tmp_path):
        path = self._emit(tmp_path)
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["n_spans"] += 1
        lines[-1] = json.dumps(summary)
        path.write_text("\n".join(lines) + "\n")
        assert any("spans" in p for p in validate_run_file(path))

    def test_garbage_line_detected(self, tmp_path):
        path = self._emit(tmp_path)
        path.write_text(path.read_text() + "{not json\n")
        assert validate_run_file(path)

    def test_unknown_line_type_detected(self, tmp_path):
        path = self._emit(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps({"type": "mystery"}))
        path.write_text("\n".join(lines) + "\n")
        assert any("unknown line type" in p for p in validate_run_file(path))

    def test_export_idempotent(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "run.jsonl", "t")
        rec.export(None)
        rec.export(None)  # second call is a no-op, not a corrupted file
        assert validate_run_file(tmp_path / "run.jsonl") == []
