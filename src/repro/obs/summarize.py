"""Run-file summarizer: the human-facing end of the JSONL export.

``python -m repro.obs summarize run.jsonl`` renders four tables from one
run file:

* **per-phase time** — spans aggregated by name: call count, total wall
  and thread-CPU seconds, and each phase's share of the measured
  wall-clock.  Shares are computed over *self time* (a span's wall minus
  its recorded children's wall), so nested spans never double count.
* **control-air attribution** — the ``control.messages`` /
  ``control.seconds`` counters the :class:`~repro.core.controlplane.ControlLedger`
  books per (layer, message class).
* **exact-model truth** — the ``truth.*`` counters the epoch loop books
  from the schedulers' verify-and-repair reports: members that failed the
  exact SINR check as packed, memberships re-packed, repair rounds (the
  kept margins are the ``sinr.margin`` row of the next table).
* **SLA quantiles** — every histogram series (delay distributions and
  friends): count, mean, min/max, and the tracked P² quantiles.

All tables are plain :class:`~repro.analysis.tables.TextTable`\\ s, the
same renderer the experiments print with.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from repro.analysis.tables import TextTable

from .export import load_run_file

__all__ = ["summarize_run"]


def _labels_text(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _phase_table(rows: list[dict]) -> TextTable:
    spans = [r for r in rows if r.get("type") == "span"]
    table = TextTable(
        ["phase", "count", "wall (s)", "cpu (s)", "share"],
        title="Per-phase time breakdown",
    )
    if not spans:
        return table

    # Self time: each span's wall minus the wall of its direct children
    # (children name their parent; seq order makes the attribution stable
    # even without explicit ids — a span's children are the deeper spans
    # recorded between its open and close, which parent+depth capture for
    # the nesting the engines emit).
    child_wall: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.get("parent") and span.get("wall_s") is not None:
            child_wall[span["parent"]] += span["wall_s"]

    agg: dict[str, list] = {}
    for span in spans:
        entry = agg.setdefault(span["name"], [0, 0.0, 0.0, False])
        entry[0] += 1
        if span.get("wall_s") is not None:
            entry[1] += span["wall_s"]
        if span.get("cpu_s") is not None:
            entry[2] += span["cpu_s"]
        else:
            entry[3] = True  # at least one span lacked a CPU clock

    total_self = sum(
        max(wall - child_wall.get(name, 0.0), 0.0)
        for name, (_, wall, _, _) in agg.items()
    )
    for name in sorted(agg, key=lambda n: -agg[n][1]):
        count, wall, cpu, cpu_missing = agg[name]
        self_wall = max(wall - child_wall.get(name, 0.0), 0.0)
        share = self_wall / total_self if total_self > 0 else 0.0
        table.add_row(
            name,
            count,
            f"{wall:.4f}",
            "~" if cpu_missing else f"{cpu:.4f}",
            f"{share:.0%}",
        )
    return table


def _control_table(rows: list[dict]) -> TextTable:
    table = TextTable(
        ["layer", "class", "messages", "air (ms)"],
        title="Control-air attribution",
    )
    messages: dict[tuple[str, str], float] = {}
    seconds: dict[tuple[str, str], float] = {}
    for row in rows:
        if row.get("type") != "metric" or row.get("kind") != "counter":
            continue
        labels = row.get("labels", {})
        key = (str(labels.get("layer", "?")), str(labels.get("cls", "?")))
        if row["name"] == "control.messages":
            messages[key] = messages.get(key, 0.0) + row["value"]
        elif row["name"] == "control.seconds":
            seconds[key] = seconds.get(key, 0.0) + row["value"]
    for key in sorted(set(messages) | set(seconds)):
        table.add_row(
            key[0],
            key[1],
            int(messages.get(key, 0)),
            f"{seconds.get(key, 0.0) * 1e3:.3f}",
        )
    return table


def _truth_table(rows: list[dict]) -> TextTable:
    table = TextTable(
        ["counter", "labels", "value"], title="Exact-model truth (verify-and-repair)"
    )
    counters = [
        r
        for r in rows
        if r.get("type") == "metric"
        and r.get("kind") == "counter"
        and r["name"].startswith("truth.")
    ]
    for r in sorted(counters, key=lambda r: (r["name"], _labels_text(r.get("labels", {})))):
        table.add_row(r["name"], _labels_text(r.get("labels", {})), int(r["value"]))
    return table


def _quantile_table(rows: list[dict]) -> TextTable:
    hists = [
        r for r in rows if r.get("type") == "metric" and r.get("kind") == "histogram"
    ]
    qnames: list[str] = []
    for h in hists:
        for q in h.get("quantiles", {}):
            if q not in qnames:
                qnames.append(q)
    table = TextTable(
        ["metric", "labels", "count", "mean", "min", "max", *qnames],
        title="SLA quantiles (P2 streaming estimates)",
    )

    def cell(value) -> str:
        return "~" if value is None else f"{value:.2f}"

    for h in sorted(hists, key=lambda r: (r["name"], _labels_text(r.get("labels", {})))):
        quantiles = h.get("quantiles", {})
        table.add_row(
            h["name"],
            _labels_text(h.get("labels", {})),
            int(h.get("count", 0)),
            cell(h.get("mean")),
            cell(h.get("min")),
            cell(h.get("max")),
            *[cell(quantiles.get(q)) for q in qnames],
        )
    return table


def summarize_run(path: str | Path) -> str:
    """Render one JSONL run file as the summarizer's text report."""
    rows = load_run_file(path)
    head = rows[0] if rows and rows[0].get("type") == "run" else {}
    lines = [
        f"run: {head.get('name', '?')}  "
        f"fingerprint: {head.get('fingerprint', '?')}  "
        f"({Path(path).name})",
        "",
        _phase_table(rows).render(),
        "",
        _control_table(rows).render(),
        "",
        _truth_table(rows).render(),
        "",
        _quantile_table(rows).render(),
    ]
    return "\n".join(lines)
