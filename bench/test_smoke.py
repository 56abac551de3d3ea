"""Smoke test of the perf ledger (collected by the tier-1 suite).

Shape, determinism and the audit's verdicts only — nothing here asserts a
timing, so host noise cannot fail it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from audit import audit_slot  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_file_names_exactly_the_benchmarks_metrics_and_workloads():
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    assert "setup_s" in names and all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)


def _smoke(out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    base = tmp_path_factory.mktemp("ledger")
    return _smoke(base / "a.json"), _smoke(base / "b.json")


def test_every_metric_is_reported_with_its_unit_on_every_workload(ledgers):
    ledger = ledgers[0]
    assert set(ledger["host"]) >= {
        "cpu", "nproc", "python", "numpy", "scipy", "git_head", "thread_pins", "steal_ticks",
    }
    assert len(ledger["workloads"]) == 4
    for name, entry in ledger["workloads"].items():
        assert not entry["problems"], (name, entry["problems"])
        for table, cells in (
            (metrics.END_TO_END, entry["end_to_end"]),
            (metrics.PER_LAYER, entry["per_layer"]),
        ):
            assert list(cells) == [m.name for m in table]
            for metric in table:
                cell = cells[metric.name]
                assert cell["unit"] == metric.unit
                assert isinstance(cell["value"], (int, float)), (name, metric.name)
        assert entry["end_to_end"]["decodable_tx_per_s"]["value"] > 0
        assert entry["per_layer"]["traffic.span_coverage"]["value"] > 0


def test_exact_physics_workloads_pass_the_audit_and_the_sparse_one_is_measured(ledgers):
    layers = {name: w["per_layer"] for name, w in ledgers[0]["workloads"].items()}
    for name in ("fdd_8x8", "sessions_patch_8x8"):
        assert layers[name]["bench.audited"]["value"] == 1
        assert layers[name]["tx_attempted"]["value"] > 0
        assert layers[name]["truth_violation_rate"]["value"] == 0
        assert layers[name]["phy.sinr_margin_min"]["value"] >= 1
    assert layers["sharded_24x24"]["bench.audited"]["value"] == 0
    assert layers["sparse_10k"]["tx_attempted"]["value"] > 0


def test_two_invocations_give_identical_counts_and_fingerprints(ledgers):
    first, second = ledgers
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        assert a["sim_fingerprint"] == b["sim_fingerprint"]
        assert (a["tx_attempted"], a["tx_failed"]) == (b["tx_attempted"], b["tx_failed"])
        for metric in metrics.PER_LAYER:
            if metric.unit == "count":
                assert a["per_layer"][metric.name] == b["per_layer"][metric.name], (
                    name,
                    metric.name,
                )
        assert a["end_to_end"]["decodable_share"] == b["end_to_end"]["decodable_share"]


def test_audit_passes_a_feasible_slot_and_flags_an_infeasible_one():
    from repro import grid_network

    network = grid_network(8, 8, density_per_km2=1000.0)
    # Two far-apart one-hop links (opposite corners of the 8x8 lattice).
    feasible = audit_slot(network, np.array([0, 63]), np.array([1, 62]))
    assert (feasible.attempted, feasible.failed) == (2, 0)
    assert feasible.margin_min >= 1.0
    # Two neighbours sending to the same receiver: neither can decode.
    clash = audit_slot(network, np.array([0, 2]), np.array([1, 1]))
    assert (clash.attempted, clash.failed) == (2, 2)
    assert clash.margin_min < 1.0
