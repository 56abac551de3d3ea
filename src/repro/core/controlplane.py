"""In-band control-plane accounting: pricing coordination into the data air.

SCREAM's headline is *overhead-efficient* distributed scheduling, and the
epoch engines already price the protocols' own execution
(:class:`~repro.core.timing.TimingModel`).  But three layers grown on top
of the protocols historically coordinated for free: incremental patching
assumed a free local controller (DESIGN.md §7), sharded reconciliation was
a free central post-pass (§8), and admission signaling plus observable
collection cost nothing (§9).  Real coordination rides the same air the
data uses — Halldórsson & Mitra (arXiv:1104.5200) and the heavy-traffic
schedulers of arXiv:1106.1590 both charge it — so this module supplies the
one shared cost model all layers now draw from:

* :class:`ControlPlaneModel` prices the four **message classes** the
  traffic layers exchange — ``patch`` deltas (schedule repairs distributed
  along the routing forest), backlog/observable ``report`` messages,
  ``reconcile`` round announcements, and session ``signal`` messages —
  each as a per-message payload size priced through
  :meth:`TimingModel.message_s`.  A class priced at **0 bytes is free**
  (the retired idealization, kept addressable), which is what makes the
  refactor differential-testable: with every price at zero, each engine
  reproduces its pre-refactor trace epoch-for-epoch (the
  ``with_budget``-style identity trick — a zero charge adds exactly
  ``0.0`` seconds to every overhead computation).
* :class:`ControlLedger` accumulates the charges of one engine run with
  per-epoch and per-layer attribution, so a trace can answer "how many
  slots of this epoch's overhead were control, and which layer spent
  them".  Engines convert the per-epoch ledger seconds into data slots on
  the same path as protocol air (``overhead_to_slots``), charged **on the
  critical path**: coordination messages serialize on shared air even when
  the regional computations they coordinate ran concurrently.
* :func:`forest_depths` measures each link's hop distance from its
  gateway along the routing forest — the in-band fan-out cost of
  controller-to-node distribution (a patch delta for a deep link relays
  through every hop between the gateway controller and the link's head).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.timing import TimingModel
from repro.util.validation import check_non_negative

#: Message classes the traffic layers exchange, each priced independently:
#:
#: * ``patch``     — one schedule-delta message per membership edit,
#:   relayed hop-by-hop down the routing forest (:mod:`repro.traffic.incremental`);
#: * ``report``    — one backlog/observable report per reporting link
#:   (admission observable collection, sharded boundary reports);
#: * ``reconcile`` — one serialized-round announcement per membership
#:   moved by cross-shard reconciliation (:mod:`repro.traffic.sharded`);
#: * ``signal``    — one session admit/deny or throttle-update message
#:   (:mod:`repro.traffic.flows`).
MESSAGE_CLASSES = ("patch", "report", "reconcile", "signal")

#: Layers that charge the ledger (attribution keys; informational).
CONTROL_LAYERS = ("incremental", "sharded", "admission")


@dataclass(frozen=True)
class ControlPlaneModel:
    """Per-class message prices for in-band control traffic.

    Attributes
    ----------
    timing:
        The :class:`~repro.core.timing.TimingModel` whose radio constants
        price a message's air time (same bitrate, turnaround, and skew
        guard as the protocol steps — control rides the same air).
    patch_bytes / report_bytes / reconcile_bytes / signal_bytes:
        Payload size of one message of each class.  **0 disables the
        class** (the free idealization): by convention a zero-byte message
        costs exactly ``0.0`` seconds, so an all-zero model reproduces the
        pre-pricing engines bit-for-bit.  The default model is all-free;
        :meth:`default_priced` returns the honest sizes E11 measures with.
    """

    timing: TimingModel = field(default_factory=TimingModel)
    patch_bytes: float = 0.0
    report_bytes: float = 0.0
    reconcile_bytes: float = 0.0
    signal_bytes: float = 0.0

    def __post_init__(self) -> None:
        for name in MESSAGE_CLASSES:
            check_non_negative(f"{name}_bytes", getattr(self, f"{name}_bytes"))

    def payload_bytes(self, message_class: str) -> float:
        """The configured payload size of one message of ``message_class``."""
        if message_class not in MESSAGE_CLASSES:
            raise ValueError(
                f"unknown message class {message_class!r}; "
                f"choose from {MESSAGE_CLASSES}"
            )
        return float(getattr(self, f"{message_class}_bytes"))

    def price_of(self, message_class: str) -> float:
        """Air seconds one message of ``message_class`` costs (0.0 if free)."""
        payload = self.payload_bytes(message_class)
        if payload <= 0.0:
            return 0.0
        return self.timing.message_s(payload)

    def scaled(self, factor: float) -> "ControlPlaneModel":
        """A model with every payload size scaled by ``factor`` — the
        monotonicity axis the property tests sweep."""
        check_non_negative("factor", factor)
        return replace(
            self,
            **{f"{c}_bytes": factor * self.payload_bytes(c) for c in MESSAGE_CLASSES},
        )

    @classmethod
    def default_priced(cls, timing: TimingModel | None = None) -> "ControlPlaneModel":
        """The honest default prices E11 measures under.

        Sizes are SCREAM-scale control frames: a ``patch`` delta carries a
        link id, a slot index and an op code (8 bytes); a ``report``
        carries a link id plus backlog and delivered counters (12 bytes);
        a ``reconcile`` announcement carries a link id and its overflow
        slot (10 bytes); a ``signal`` carries a flow id and a verdict or
        throttle factor (6 bytes).  All are deliberately small — the point
        of in-band pricing is that even small messages are not free once
        counted honestly.
        """
        return cls(
            timing=timing or TimingModel(),
            patch_bytes=8.0,
            report_bytes=12.0,
            reconcile_bytes=10.0,
            signal_bytes=6.0,
        )


class ControlLedger:
    """Per-epoch, per-layer account of one engine run's control charges.

    Engines create one ledger per run (``run_epochs(..., control=model)``)
    and every layer books its messages through :meth:`charge`; the engine
    then reads :meth:`seconds_for` when converting the epoch's overhead to
    data slots.  Message *counts* are tracked even for free classes —
    the zero-price run reports exactly which messages the idealization was
    not paying for.
    """

    def __init__(self, model: ControlPlaneModel):
        self.model = model
        #: epoch -> {(layer, message_class): count}.  Counts are the only
        #: mutable state: every seconds figure is derived on read as
        #: count x price, summed in a fixed key order, so ledger readings
        #: are exactly reproducible whatever order charges land in (every
        #: layer of a run charges one shared ledger, and the lock keeps
        #: concurrent callers safe).  Bucketing per
        #: epoch keeps the engines' per-epoch reads proportional to that
        #: epoch's few entries, not the whole run's history.
        self._counts: dict[int, dict[tuple[str, str], int]] = {}
        self._lock = threading.Lock()
        self._obs = None

    def bind_obs(self, obs) -> None:
        """Mirror every charge into an observability registry.

        Once bound (the engines rebind per run; ``None`` unbinds), each
        :meth:`charge` also books ``control.messages`` and
        ``control.seconds`` counters labeled by layer and message class —
        the series the run-file summarizer renders as control-air
        attribution.  Observe-only: the ledger's own accounting is
        untouched, so bound and unbound runs stay bit-identical.
        """
        self._obs = obs

    def charge(self, epoch: int, layer: str, message_class: str, count: int) -> float:
        """Book ``count`` messages of ``message_class`` from ``layer`` to
        ``epoch``'s control budget; return the seconds charged.

        Thread-safe: concurrent charges serialize on an internal lock, and
        since only integer counts accumulate, every derived figure is
        independent of the arrival order.
        """
        if count < 0:
            raise ValueError("message count must be non-negative")
        if not layer:
            raise ValueError("layer must be a non-empty attribution key")
        seconds = count * self.model.price_of(message_class)
        if count:
            key = (layer, message_class)
            with self._lock:
                bucket = self._counts.setdefault(epoch, {})
                bucket[key] = bucket.get(key, 0) + count
            if self._obs is not None:
                self._obs.counter(
                    "control.messages", count, layer=layer, cls=message_class
                )
                if seconds:
                    self._obs.counter(
                        "control.seconds", seconds, layer=layer, cls=message_class
                    )
        return seconds

    def seconds_for(self, epoch: int) -> float:
        """Control air seconds booked to ``epoch`` so far (0.0 when none)."""
        return sum(
            count * self.model.price_of(cls)
            for (_lay, cls), count in sorted(self._counts.get(epoch, {}).items())
        )

    def messages_for(self, epoch: int) -> int:
        """Control messages booked to ``epoch`` so far."""
        return sum(self._counts.get(epoch, {}).values())

    def messages(self, layer: str | None = None, message_class: str | None = None) -> int:
        """Messages booked, filtered by layer and/or class; unfiltered, the
        run's total."""
        return sum(
            count
            for bucket in self._counts.values()
            for (lay, cls), count in bucket.items()
            if (layer is None or lay == layer)
            and (message_class is None or cls == message_class)
        )

    def seconds(self, layer: str | None = None, message_class: str | None = None) -> float:
        """Seconds booked, filtered by layer and/or class; unfiltered, the
        run's total."""
        classes = MESSAGE_CLASSES if message_class is None else (message_class,)
        return sum(
            self.messages(layer, cls) * self.model.price_of(cls) for cls in classes
        )


def forest_depths(links) -> np.ndarray:
    """Hop distance of each link's head from its gateway, along the forest.

    ``depths[k]`` is the number of links on the route from link ``k``'s
    head node down to its gateway (gateway-adjacent links have depth 1) —
    the number of in-band relay transmissions a controller-to-node message
    for link ``k`` costs, which is how patch distribution is priced.

    ``links`` must be a forest :class:`~repro.scheduling.links.LinkSet`
    (one link per head node, acyclic toward the gateways), the same
    contract :class:`~repro.traffic.queues.LinkQueues` enforces.
    """
    hop = links.next_links()  # raises for non-forest link sets
    # Pointer jumping: ``depths[k]`` counts the links from ``k`` up to, not
    # including, ``hop[k]``, and every pass doubles that reach — log2(depth)
    # numpy passes, however deep the chains.
    depths = np.ones(links.n_links, dtype=np.int64)
    for _ in range(links.n_links.bit_length() + 1):
        live = np.flatnonzero(hop >= 0)
        if live.size == 0:
            return depths
        via = hop[live]
        depths[live] += depths[via]
        hop[live] = hop[via]
    raise ValueError("routing loop detected while measuring depths")
