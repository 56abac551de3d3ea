"""JSONL run files: schema, streaming writer, and validation.

A run file is newline-delimited JSON with one object per line.  Line types
(the ``type`` field) and their required keys:

``run``     — first line of the file.  ``name`` (run identifier),
              ``schema`` (integer schema version, currently 1),
              ``fingerprint`` (12-hex-digit digest of the emitting
              config), ``config`` (the JSON-rendered config itself).
``span``    — one closed phase span: ``name``, ``labels``, ``seq``,
              ``depth``, ``parent``, ``wall_s``, ``cpu_s`` (cpu may be
              null on platforms without a thread CPU clock).
``metric``  — one metric series snapshot: ``kind`` (counter | gauge |
              histogram), ``name``, ``labels``, and ``value`` for
              scalars or ``count``/``mean``/``min``/``max``/``quantiles``
              for histograms.
``summary`` — last line: ``n_spans``, ``n_metrics`` — lets the validator
              detect truncated files.

Spans stream to disk as they close (no per-span buffering growth); metric
snapshots and the summary are written by :meth:`JsonlRecorder.export`.
Non-finite floats are emitted as JSON ``null`` so the files stay loadable
by strict parsers.

:func:`validate_run_file` is the CI gate: it returns a list of problems
(empty for a conforming file), so malformed emissions fail the build
rather than silently producing unreadable artifacts.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import IO

from .spans import Span

__all__ = ["SCHEMA_VERSION", "JsonlRecorder", "fingerprint", "validate_run_file"]

SCHEMA_VERSION = 1

_SPAN_KEYS = {"name", "labels", "seq", "depth", "parent", "wall_s", "cpu_s"}
_METRIC_KINDS = {"counter", "gauge", "histogram"}


def fingerprint(config: object) -> str:
    """12-hex-digit digest of a JSON-renderable config object."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _dump(obj: dict) -> str:
    # allow_nan=False would raise; pre-sanitize instead so a nan histogram
    # min on an empty series cannot corrupt the file.
    return json.dumps(_sanitize(obj), sort_keys=True)


def _sanitize(value):
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


class JsonlRecorder:
    """Streams a run to a JSONL file; also a span :class:`Recorder`.

    The header is written at construction, spans as they close, metric
    rows and the summary at :meth:`export`.  All writes serialize on a
    lock, so spans may close on any thread.
    """

    def __init__(self, path: str | Path, name: str, config: dict | None = None):
        self.path = Path(path)
        self.name = name
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._n_spans = 0
        self._n_metrics = 0
        self._closed = False
        self._fh: IO[str] = self.path.open("w")
        self._fh.write(
            _dump(
                {
                    "type": "run",
                    "schema": SCHEMA_VERSION,
                    "name": name,
                    "fingerprint": fingerprint(config or {}),
                    "config": config or {},
                }
            )
            + "\n"
        )

    def record_span(self, span: Span) -> None:
        line = _dump(span.row()) + "\n"
        with self._lock:
            if self._closed:
                return
            self._n_spans += 1
            self._fh.write(line)

    def export(self, registry=None) -> Path:
        """Write metric snapshots + summary, close the file."""
        with self._lock:
            if self._closed:
                return self.path
            if registry is not None:
                for row in registry.rows():
                    self._n_metrics += 1
                    self._fh.write(_dump(row) + "\n")
            self._fh.write(
                _dump(
                    {
                        "type": "summary",
                        "n_spans": self._n_spans,
                        "n_metrics": self._n_metrics,
                    }
                )
                + "\n"
            )
            self._fh.close()
            self._closed = True
        return self.path


def load_run_file(path: str | Path) -> list[dict]:
    """Parse every line of a run file (raises on malformed JSON)."""
    rows = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def validate_run_file(path: str | Path) -> list[str]:
    """Check one run file against the schema; return the problem list."""
    problems: list[str] = []
    try:
        rows = load_run_file(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable: {exc}"]
    if not rows:
        return ["empty file"]

    head = rows[0]
    if head.get("type") != "run":
        problems.append("first line is not a run header")
    else:
        if head.get("schema") != SCHEMA_VERSION:
            problems.append(
                f"schema version {head.get('schema')!r}, expected {SCHEMA_VERSION}"
            )
        for key in ("name", "fingerprint", "config"):
            if key not in head:
                problems.append(f"run header missing {key!r}")

    n_spans = n_metrics = 0
    summary = None
    for i, row in enumerate(rows[1:], start=2):
        kind = row.get("type")
        if kind == "span":
            n_spans += 1
            missing = _SPAN_KEYS - row.keys()
            if missing:
                problems.append(f"line {i}: span missing {sorted(missing)}")
        elif kind == "metric":
            n_metrics += 1
            if row.get("kind") not in _METRIC_KINDS:
                problems.append(f"line {i}: unknown metric kind {row.get('kind')!r}")
            elif row["kind"] == "histogram":
                if "quantiles" not in row or "count" not in row:
                    problems.append(f"line {i}: histogram missing count/quantiles")
            elif "value" not in row:
                problems.append(f"line {i}: {row['kind']} missing value")
            if "name" not in row or "labels" not in row:
                problems.append(f"line {i}: metric missing name/labels")
        elif kind == "summary":
            if summary is not None:
                problems.append(f"line {i}: duplicate summary")
            summary = row
            if i != len(rows):
                problems.append(f"line {i}: summary is not the last line")
        elif kind == "run":
            problems.append(f"line {i}: duplicate run header")
        else:
            problems.append(f"line {i}: unknown line type {kind!r}")

    if summary is None:
        problems.append("missing summary line (truncated file?)")
    else:
        if summary.get("n_spans") != n_spans:
            problems.append(
                f"summary claims {summary.get('n_spans')} spans, file has {n_spans}"
            )
        if summary.get("n_metrics") != n_metrics:
            problems.append(
                f"summary claims {summary.get('n_metrics')} metrics, "
                f"file has {n_metrics}"
            )
    return problems
