"""Unit tests for the run-file summarizer and the ``python -m repro.obs`` CLI."""

import pytest

from repro.obs import JsonlRecorder, Span
from repro.obs.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.summarize import summarize_run


@pytest.fixture
def run_file(tmp_path):
    rec = JsonlRecorder(tmp_path / "run.jsonl", "demo", config={"seed": 7})
    with Span("epoch.schedule", recorder=rec, engine="epoch", epoch=0):
        with Span("incremental.patch", recorder=rec, engine="epoch", epoch=0):
            pass
    reg = MetricsRegistry()
    reg.counter("control.messages", 4, layer="sharded", cls="report")
    reg.counter("control.seconds", 0.25, layer="sharded", cls="report")
    reg.observe_many("traffic.delay_slots", range(100), region="all")
    rec.export(reg)
    return tmp_path / "run.jsonl"


class TestSummarizeRun:
    def test_renders_all_three_tables(self, run_file):
        text = summarize_run(run_file)
        assert "Per-phase time breakdown" in text
        assert "Control-air attribution" in text
        assert "SLA quantiles" in text
        assert "run: demo" in text

    def test_phase_rows_and_control_air(self, run_file):
        text = summarize_run(run_file)
        assert "epoch.schedule" in text
        assert "incremental.patch" in text
        # 0.25 s booked -> 250 ms of control air for (sharded, report).
        assert "250.000" in text

    def test_quantile_row(self, run_file):
        text = summarize_run(run_file)
        assert "traffic.delay_slots" in text
        assert "region=all" in text

    def test_an_unlabelled_metric_reads_a_dash(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "bare.jsonl", "bare", config={})
        reg = MetricsRegistry()
        reg.counter("truth.violations", 3)
        rec.export(reg)
        row = next(
            [cell.strip() for cell in line.split("|")]
            for line in summarize_run(tmp_path / "bare.jsonl").splitlines()
            if line.startswith("truth.violations")
        )
        assert row == ["truth.violations", "-", "3"]

    def test_nested_share_never_exceeds_100(self, run_file):
        shares = [
            int(tok.rstrip("%"))
            for line in summarize_run(run_file).splitlines()
            for tok in line.split()
            if tok.endswith("%") and tok.rstrip("%").isdigit()
        ]
        assert shares and all(0 <= s <= 100 for s in shares)
        assert sum(shares) <= 100 + 2  # self-time shares, rounding slack


class TestCli:
    def test_summarize_exits_zero(self, run_file, capsys):
        assert main(["summarize", str(run_file)]) == 0
        assert "Per-phase time breakdown" in capsys.readouterr().out

    def test_validate_ok(self, run_file, capsys):
        assert main(["validate", str(run_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_malformed(self, run_file, capsys):
        run_file.write_text(run_file.read_text() + "{broken\n")
        assert main(["validate", str(run_file)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
