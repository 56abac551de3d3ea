"""Phase-span tracing with wall and thread-CPU clocks.

A span measures one engine phase (election, feasibility, patch, reconcile,
serve, control charge, admission decision).  Spans nest: a per-thread stack
assigns every closed span its parent and depth, so the summarizer can
attribute the wall-clock of ``sharded.epoch`` to its children without
double counting.

Closed spans flow into a :class:`Recorder`.  The contract the differential
tests enforce: a recorder *observes* — it never mutates engine state, never
consumes engine RNG, and the :class:`NullRecorder` path is cheap enough
that tier-1 guards pin it under 5% of thread-CPU time on a reference run.
Engines obtain spans via :func:`repro.obs.phase`, which returns a shared
no-op object when observability is off entirely — the off path allocates
nothing per call.

Clocks: ``time.perf_counter`` for wall time and ``time.thread_time`` for
per-thread CPU time.  The CPU clock is taken through the module attribute
:data:`CPU_CLOCK` so tests can simulate platforms without it; when absent,
spans carry ``cpu_s=None`` and the engines' derived trace fields become
``None`` rather than a silent 0.0 (see DESIGN.md §11).
"""

from __future__ import annotations

import threading
import time
from typing import Protocol

__all__ = [
    "Span",
    "Recorder",
    "NullRecorder",
    "CPU_CLOCK",
]

#: Per-thread CPU clock, or ``None`` on platforms without one.  Module
#: attribute (not a local import) so tests can monkeypatch unavailability.
CPU_CLOCK = getattr(time, "thread_time", None)


class Recorder(Protocol):
    """Sink for closed spans.  Implementations must be observe-only."""

    def record_span(self, span: "Span") -> None: ...


class NullRecorder:
    """The zero-cost recorder: drops every span."""

    __slots__ = ()

    def record_span(self, span: "Span") -> None:
        pass


class _SpanStack(threading.local):
    def __init__(self):
        self.stack: list[Span] = []


_ACTIVE = _SpanStack()
_SEQ_LOCK = threading.Lock()
_SEQ = 0


def _next_seq() -> int:
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        return _SEQ


class Span:
    """One timed phase.  Context manager; reentrant spans are not allowed.

    Attributes after close: ``wall_s`` (perf_counter delta), ``cpu_s``
    (thread CPU delta, or ``None`` when :data:`CPU_CLOCK` is unavailable),
    ``depth``/``parent`` (nesting within the opening thread), ``seq``
    (global open order, for stable export ordering).
    """

    __slots__ = (
        "name",
        "labels",
        "recorder",
        "seq",
        "depth",
        "parent",
        "wall_s",
        "cpu_s",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, name: str, recorder: Recorder | None = None, **labels):
        self.name = name
        self.labels = labels
        self.recorder = recorder
        self.seq = 0
        self.depth = 0
        self.parent: str | None = None
        self.wall_s: float | None = None
        self.cpu_s: float | None = None
        self._wall0 = 0.0
        self._cpu0: float | None = None

    def __enter__(self) -> "Span":
        stack = _ACTIVE.stack
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self.seq = _next_seq()
        clock = CPU_CLOCK
        self._cpu0 = clock() if clock is not None else None
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        if self._cpu0 is not None:
            clock = CPU_CLOCK
            if clock is not None:
                self.cpu_s = clock() - self._cpu0
        stack = _ACTIVE.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exception unwound children without __exit__
            del stack[stack.index(self) :]
        if self.recorder is not None:
            self.recorder.record_span(self)

    def row(self) -> dict:
        """The span as the JSONL exporter's row."""
        return {
            "type": "span",
            "name": self.name,
            "labels": {str(k): v for k, v in self.labels.items()},
            "seq": self.seq,
            "depth": self.depth,
            "parent": self.parent,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }


class _NoopSpan:
    """Shared do-nothing span for the obs-off fast path."""

    __slots__ = ()
    name = ""
    labels: dict = {}
    wall_s = None
    cpu_s = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


NOOP_SPAN = _NoopSpan()
