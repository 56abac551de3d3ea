"""Every ledger metric DESIGN.md quotes exists.

A dotted name in backticks whose first part is a perf-ledger namespace
(``scheduling.pack_s``, ``traffic.serve_s``, …) must be a metric of the
latest committed ``BENCH_<pr>.json``, or a series the library itself books
into its metrics registry (``traffic.delay_slots``).  A renamed or retired
metric then fails here instead of leaving the design doc quoting a number
nobody measures any more.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOTTED = re.compile(r"`([a-z]+\.[a-z0-9_]+)`")


def latest_ledger() -> dict:
    ledgers = sorted(
        ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1])
    )
    return json.loads(ledgers[-1].read_text())


def ledger_metrics(ledger: dict) -> set[str]:
    return {
        name
        for workload in ledger["workloads"].values()
        for section in ("end_to_end", "per_layer")
        for name in workload[section]
    }


def booked_series() -> set[str]:
    """String constants under ``src/`` that look like dotted series names."""
    return {
        node.value
        for path in (ROOT / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and DOTTED.fullmatch(f"`{node.value}`")
    }


def test_quoted_ledger_metrics_are_in_the_latest_ledger():
    metrics = ledger_metrics(latest_ledger())
    namespaces = {name.split(".")[0] for name in metrics if "." in name}
    quoted = {
        name
        for name in DOTTED.findall((ROOT / "DESIGN.md").read_text())
        if name.split(".")[0] in namespaces
    }
    assert quoted, "DESIGN.md quotes no ledger metric: the pattern is stale"
    unknown = sorted(quoted - metrics - booked_series())
    assert not unknown, f"DESIGN.md quotes metrics no ledger or series has: {unknown}"
