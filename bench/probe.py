"""What the harness can see of one engine run, from outside the engine.

The engines expose three public seams: the scheduler callable
(``EpochSchedulerFn``, or a ``ScheduleCache`` passed as ``scheduler`` — the
``isinstance`` seam), the ``protocol`` callable of ``distributed_scheduler``
and the ``on_epoch`` callback.  A :class:`Probe` wraps each with a span and
keeps what passed through: epoch boundaries, epoch records, the schedules
handed to the serving stage, and the wall time of every pack / protocol
call.  It never changes an argument or a result.
"""

from __future__ import annotations

import threading
import time

from calibrate import INTERVAL_S
from repro import ScheduleCache
from repro.obs.spans import Span


class TimelineRecorder:
    """A span ``Recorder`` (cf. ``BufferRecorder``) that also notes when, and
    on which thread, each span closed — enough to rebuild the span tree and
    the wall-clock intervals it covers.  Spans stay in memory."""

    def __init__(self):
        self.rows: list[tuple[Span, float, int]] = []

    def record_span(self, span: Span) -> None:
        self.rows.append((span, time.perf_counter(), threading.get_ident()))


class _ProbedCache(ScheduleCache):
    """A ``ScheduleCache`` that shows the probe every schedule it answers
    with (hit, patched or recomputed); decisions and accounting untouched."""

    def __init__(self, probe: "Probe", base, **kwargs):
        super().__init__(base, **kwargs)
        self._probe = probe

    def __call__(self, links, epoch):
        planned = super().__call__(links, epoch)
        self._probe.handed.append((epoch, planned.schedule))
        return planned


class Probe:
    """Observations of one repeat (one engine run)."""

    def __init__(self, recorder: TimelineRecorder | None = None, sampler=None):
        self.recorder = recorder  # None: spans measure but are not recorded
        self.sampler = sampler  # host-speed sampler to run at epoch boundaries, if any
        self.started = 0.0
        self.epoch_end: list[float] = []
        self.records: list = []
        #: (epoch, schedule) for every schedule handed to the serving stage.
        self.handed: list[tuple[int, object]] = []
        #: (epoch, wall_s, memberships) per packing call.
        self.packs: list[tuple[int, float, int]] = []
        #: (epoch, wall_s, StepTally) per distributed-protocol call.
        self.protocols: list[tuple[int, float, object]] = []
        self.stats = None  # CacheStats of a probed cache
        self.workload = None  # FlowWorkload, when the run has sessions
        self._epoch = 0

    def start(self) -> None:
        self.started = time.perf_counter()

    def on_epoch(self, record, queues) -> None:
        now = time.perf_counter()
        self.epoch_end.append(now)
        self.records.append(record)
        sampler = self.sampler
        if sampler is not None and (
            not sampler.samples or now - sampler.samples[-1][0] >= INTERVAL_S
        ):
            sampler.sample()

    def scheduler(self, fn, pack: bool = False, hands: bool = True):
        """Wrap an ``EpochSchedulerFn``; ``pack`` marks a slot-packing call
        (greedy_physical / greedy_rate), ``hands`` a scheduler whose answer
        goes straight to the serving stage."""

        name = "bench.call.pack" if pack else "bench.call.schedule"

        def probed(links, epoch):
            self._epoch = epoch
            with Span(name, recorder=self.recorder, epoch=epoch) as span:
                planned = fn(links, epoch)
            schedule = planned.schedule
            if pack:
                memberships = sum(len(slot) for slot in schedule.slots)
                self.packs.append((epoch, span.wall_s, memberships))
            if hands:
                self.handed.append((epoch, schedule))
            return planned

        return probed

    def protocol(self, fn):
        """Wrap a ``*_on_network`` protocol callable."""

        def probed(network, links, config, **kwargs):
            epoch = self._epoch
            with Span("bench.call.protocol", recorder=self.recorder, epoch=epoch) as span:
                result = fn(network, links, config, **kwargs)
            self.protocols.append((epoch, span.wall_s, result.tally))
            return result

        return probed

    def cache(self, base, **kwargs) -> ScheduleCache:
        cache = _ProbedCache(self, base, **kwargs)
        self.stats = cache.stats
        return cache

    def epoch_walls(self) -> list[float]:
        """Wall seconds of each epoch, from the ``on_epoch`` boundaries."""
        edges = [self.started, *self.epoch_end]
        return [b - a for a, b in zip(edges, edges[1:])]
