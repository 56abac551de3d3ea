"""Streaming metrics: counters, gauges, and P²-quantile histograms.

The engines' historical accounting retains full per-event logs (per-packet
delay lists, per-epoch record lists) and summarizes them after the run —
O(trace) memory that the 100k-node roadmap item cannot afford.  This module
supplies the O(1) alternative: a :class:`MetricsRegistry` of named series
where counters and gauges are single floats and distribution summaries are
:class:`StreamingHistogram`\\ s built on the P² algorithm of Jain & Chlamtac
(CACM 1985) — five markers per tracked quantile, updated in constant time
per observation, no samples stored.

P² error characteristics (unit-tested in ``tests/unit/test_obs_metrics.py``):
estimates are *exact* until the fifth observation (the markers are the
sorted sample), and for smooth unimodal distributions the p99 estimate
lands within a few percent of the exact empirical quantile at a few
thousand observations.  The estimator is not robust to pathological
adversarial orderings — it is a monitoring instrument, not a statistic for
the result tables, which keep their exact full-log computations by default.

Metric identity is ``(dotted name, frozen label set)``: the same name with
different labels (engine, region, epoch, message class, ...) is a distinct
series, which is how one registry carries every engine of a sharded,
admission-controlled run without collisions.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "P2Quantile",
    "StreamingHistogram",
    "MetricsRegistry",
    "label_key",
]

#: Quantiles every histogram tracks: the median plus the two SLA tails the
#: delay analyses report.
DEFAULT_QUANTILES = (0.5, 0.99, 0.999)


class P2Quantile:
    """One streaming quantile estimate via the P² algorithm.

    Five markers track (min, q/2, q, (1+q)/2, max) heights; each
    observation adjusts marker positions toward their ideal (linearly
    interpolated) locations using a piecewise-parabolic height update.
    Memory and per-observation cost are O(1); with fewer than five
    observations the estimate is read exactly off the sorted sample.
    """

    __slots__ = ("q", "n", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self.n = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        self.extend([float(value)])

    def extend(self, values: list[float]) -> None:
        """:meth:`add` of each of ``values`` in turn — the textbook update,
        value by value, with the five markers held in locals for the batch
        (an end-of-run booking feeds a whole delay log through here)."""
        h = self._heights
        start = 0
        while self.n < 5 and start < len(values):
            h.append(values[start])
            h.sort()
            self.n += 1
            start += 1
        if start == len(values):
            return
        self.n += len(values) - start
        h0, h1, h2, h3, h4 = h
        p0, p1, p2, p3, p4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        r0, r1, r2, r3, r4 = self._rates
        for x in values[start:]:
            # Locate the cell and bump the markers above it.
            if x < h0:
                h0 = x
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif x >= h4:
                h4 = x
            elif not x >= h1:
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif not x >= h2:
                p2 += 1.0
                p3 += 1.0
            elif not x >= h3:
                p3 += 1.0
            p4 += 1.0
            d0 += r0
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += r4
            # Adjust the three interior markers toward their desired
            # positions, in order (each sees its left neighbour's move).
            d = d1 - p1
            if (d >= 1.0 and p2 - p1 > 1.0) or (d <= -1.0 and p0 - p1 < -1.0):
                h1, p1 = _move(1.0 if d >= 1.0 else -1.0, h0, h1, h2, p0, p1, p2)
            d = d2 - p2
            if (d >= 1.0 and p3 - p2 > 1.0) or (d <= -1.0 and p1 - p2 < -1.0):
                h2, p2 = _move(1.0 if d >= 1.0 else -1.0, h1, h2, h3, p1, p2, p3)
            d = d3 - p3
            if (d >= 1.0 and p4 - p3 > 1.0) or (d <= -1.0 and p2 - p3 < -1.0):
                h3, p3 = _move(1.0 if d >= 1.0 else -1.0, h2, h3, h4, p2, p3, p4)
        h[:] = h0, h1, h2, h3, h4
        self._positions[:] = p0, p1, p2, p3, p4
        self._desired[:] = d0, d1, d2, d3, d4

    @property
    def value(self) -> float:
        """The current quantile estimate (nan before any observation)."""
        if self.n == 0:
            return float("nan")
        if self.n <= 5:  # exact: read the sorted sample directly
            rank = max(0, min(self.n - 1, round(self.q * (self.n - 1))))
            return self._heights[rank]
        return self._heights[2]


def _move(d: float, hl: float, h: float, hr: float, pl: float, p: float, pr: float):
    """(height, position) of an interior P² marker at ``(p, h)`` moved one
    step ``d`` between its neighbours ``(pl, hl)`` and ``(pr, hr)``: the
    piecewise-parabolic prediction, or the linear one toward the neighbour
    it moves to when the parabola leaves the bracket."""
    candidate = h + d / (pr - pl) * (
        (p - pl + d) * (hr - h) / (pr - p) + (pr - p - d) * (h - hl) / (p - pl)
    )
    if hl < candidate < hr:
        return candidate, p + d
    if d > 0.0:
        return h + d * (hr - h) / (pr - p), p + d
    return h + d * (hl - h) / (pl - p), p + d


class StreamingHistogram:
    """O(1)-memory distribution summary: count, mean, min/max, P² quantiles.

    The mean is an exact running mean (Welford-style incremental update);
    each tracked quantile is a :class:`P2Quantile`.  ``snapshot()`` renders
    the summary as the plain dict the JSONL exporter emits.
    """

    __slots__ = ("count", "mean", "min", "max", "_quantiles", "_held")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles = {q: P2Quantile(q) for q in DEFAULT_QUANTILES}
        #: Batches :meth:`add_many` booked that the P² markers have not seen.
        self._held: list[np.ndarray] = []

    def add(self, value: float) -> None:
        self._fold()
        x = float(value)
        self.count += 1
        self.mean += (x - self.mean) / self.count
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        for est in self._quantiles.values():
            est.add(x)

    def add_many(self, values: Iterable[float]) -> None:
        """Batch feed: moments vectorize; the P² markers stay sequential,
        and run when a quantile is read.

        The count/mean/min/max merge is O(1) numpy work regardless of
        batch size, which keeps end-of-run bulk bookings (a whole delay
        array at once) off the per-sample Python path.  Quantile markers
        are order-dependent by construction, so they still see every
        value — one :meth:`P2Quantile.extend` per quantile — but only once
        something reads them (:meth:`quantile`, :meth:`snapshot`, or the
        next :meth:`add`): a copy of the batch is held until then, so a
        booking nobody exports costs no marker update.  The markers see
        the same values in the same order either way, bit for bit.
        """
        if isinstance(values, np.ndarray):
            arr = np.array(values, dtype=float).ravel()
        else:
            arr = np.fromiter((float(v) for v in values), dtype=float)
        if not arr.size:
            return
        total = self.count + arr.size
        self.mean += (float(arr.sum()) - arr.size * self.mean) / total
        self.count = total
        low, high = float(arr.min()), float(arr.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        self._held.append(arr)

    def _fold(self) -> None:
        """Feed the held batches through the P² markers, in booking order."""
        if not self._held:
            return
        samples = np.concatenate(self._held).tolist()
        self._held = []
        for est in self._quantiles.values():
            est.extend(samples)

    def snapshot(self) -> dict:
        self._fold()
        return {
            "count": self.count,
            "mean": self.mean if self.count else float("nan"),
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "quantiles": {f"p{q:g}": est.value for q, est in self._quantiles.items()},
        }


def label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable identity of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled metric series: counters, gauges, histograms.

    Addressing is ``registry.counter("traffic.delivered", 3, engine="sharded")``
    — dotted metric name plus free-form labels.  All mutators are
    thread-safe (every engine stage, cache and ledger of a run books into
    one shared registry); histogram updates serialize on the
    registry lock, which is fine at the per-epoch/per-delivery rates the
    engines emit.
    """

    def __init__(self):
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._histograms: dict[tuple[str, tuple], StreamingHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` (default 1) to a monotone counter series."""
        key = (name, label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to its latest value."""
        with self._lock:
            self._gauges[(name, label_key(labels))] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Feed one observation into a histogram series."""
        key = (name, label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = StreamingHistogram()
            hist.add(value)

    def observe_many(self, name: str, values: Iterable[float], **labels) -> None:
        key = (name, label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = StreamingHistogram()
            hist.add_many(values)

    # -- reads ---------------------------------------------------------------

    def rows(self) -> Iterator[dict]:
        """Snapshot every series as the JSONL exporter's metric rows."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            # Snapshot under the lock: it folds held batches into the markers.
            histograms = [
                (key, hist.snapshot()) for key, hist in sorted(self._histograms.items())
            ]
        for (name, labels), value in counters:
            yield {
                "type": "metric",
                "kind": "counter",
                "name": name,
                "labels": dict(labels),
                "value": value,
            }
        for (name, labels), value in gauges:
            yield {
                "type": "metric",
                "kind": "gauge",
                "name": name,
                "labels": dict(labels),
                "value": value,
            }
        for (name, labels), snapshot in histograms:
            yield {
                "type": "metric",
                "kind": "histogram",
                "name": name,
                "labels": dict(labels),
                **snapshot,
            }
