"""repro.obs — unified instrumentation for every engine layer.

One :class:`Obs` object rides through a run via the engines' ``obs=``
parameter and collects three kinds of signal:

* **metrics** — counters/gauges/streaming histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` (P² quantiles, O(1) memory);
* **spans** — nested phase timings (:mod:`repro.obs.spans`) with wall and
  thread-CPU clocks, streamed to a :class:`~repro.obs.spans.Recorder`;
* **run files** — a JSONL export (:mod:`repro.obs.export`) that
  ``python -m repro.obs summarize`` renders into per-phase breakdowns,
  control-air attribution, and SLA quantile tables.

Levels (:class:`ObsConfig.level`): ``off`` disables everything (engines
treat ``obs=None`` and a disabled Obs identically — the differential tests
prove the off path bit-identical to an un-instrumented run), ``metrics``
books counters/gauges/histograms only, ``spans`` adds phase tracing.

The cardinal rule, enforced by tests: observability is *passive*.  It
never consumes engine RNG, never mutates engine state, and its absence or
presence never changes a single record of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .export import JsonlRecorder, fingerprint, validate_run_file
from .metrics import MetricsRegistry, P2Quantile, StreamingHistogram
from .spans import NOOP_SPAN, NullRecorder, Recorder, Span

__all__ = [
    "Obs",
    "ObsConfig",
    "phase",
    "MetricsRegistry",
    "StreamingHistogram",
    "P2Quantile",
    "Recorder",
    "NullRecorder",
    "JsonlRecorder",
    "Span",
    "fingerprint",
    "validate_run_file",
]

LEVELS = ("off", "metrics", "spans")


@dataclass(frozen=True)
class ObsConfig:
    """What to instrument and where to put it."""

    level: str = "spans"
    jsonl_path: str | None = None
    run_name: str = "run"
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"obs level must be one of {LEVELS}, got {self.level!r}")


class Obs:
    """The instrument handle engines carry.

    ``Obs.create(config)`` returns ``None`` for level ``off`` so call
    sites keep the plain ``obs is None`` fast path; an ``Obs`` instance
    therefore always has at least metrics enabled.
    """

    def __init__(self, config: ObsConfig | None = None):
        self.config = config or ObsConfig()
        if self.config.level == "off":
            raise ValueError("use Obs.create(); level 'off' has no Obs object")
        self.spans_enabled = self.config.level == "spans"
        self.registry = MetricsRegistry()
        if self.config.jsonl_path is not None:
            self.recorder: Recorder = JsonlRecorder(
                self.config.jsonl_path,
                self.config.run_name,
                config=dict(self.config.config),
            )
        else:
            self.recorder = NullRecorder()

    @classmethod
    def create(cls, config: ObsConfig | None = None) -> "Obs | None":
        """Build an Obs for a config, or ``None`` when level is off."""
        if config is None or config.level == "off":
            return None
        return cls(config)

    # -- metrics pass-throughs ----------------------------------------------

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        self.registry.counter(name, value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.registry.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.observe(name, value, **labels)

    def observe_many(self, name: str, values, **labels) -> None:
        self.registry.observe_many(name, values, **labels)

    # -- spans ---------------------------------------------------------------

    # -- export --------------------------------------------------------------

    def export(self) -> Path | None:
        """Flush metrics + summary to the JSONL file, if one was configured."""
        if isinstance(self.recorder, JsonlRecorder):
            return self.recorder.export(self.registry)
        return None


def phase(obs: Obs | None, name: str, measure: bool = False, **labels):
    """The span entry point engines use.

    * obs at spans level → a recorded span;
    * otherwise, ``measure=True`` → an unrecorded measuring span (engines
      still need wall/CPU deltas to fill the public trace timing fields);
    * otherwise → a shared no-op (allocates nothing, times nothing).
    """
    if obs is not None and obs.spans_enabled:
        return Span(name, recorder=obs.recorder, **labels)
    if measure:
        return Span(name)
    return NOOP_SPAN
