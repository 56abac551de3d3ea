"""Online admission control: estimate the stability knee, shed the rest.

The epoch engines serve whatever load the workload offers; past the
measured stability knee they simply diverge (E7–E9).  Real systems do not —
they *admit* the traffic the SINR-feasible schedule can carry and block or
throttle the rest (cf. heavy-traffic scheduling on interfering routes,
arXiv:1106.1590, and throughput maximization under physical interference,
arXiv:1208.0902).  This module supplies that missing layer as controllers a
:class:`~repro.traffic.flows.FlowWorkload` consults every epoch:

* ``none`` — admit everything, never throttle: the differential baseline,
  bit-identical to the uncontrolled engines.
* ``static-cap`` — a fixed admitted-rate cap (pkt/slot aggregate): the
  operator *tells* the controller the knee.
* ``knee-tracker`` — AIMD on the admitted-rate cap driven purely by
  *observable* signals from the per-epoch trace — offered arrivals,
  backlog slope over a sliding window (with a magnitude gate), and the
  measured delivered rate, the served-vs-offered pair in goodput form
  with protocol overhead already priced in: the controller *estimates*
  the knee online rather than being told λ*.  While the window reads
  stable the cap creeps up (additive probe); when backlog growth clears
  the slope-plus-magnitude test, the cap snaps down to the best
  delivered rate observed — the classic TCP-shaped hunt around the
  capacity it cannot directly see.
* ``backpressure`` — per-flow, not per-rate: flows whose route crosses the
  most-backlogged links are throttled (elastic) while flows through quiet
  regions run free; new sessions routed across a hot link are blocked.

Controllers see the network **only** through the per-epoch feedback hook
(``run_epochs(..., on_epoch=workload.observe)``): the
:class:`~repro.traffic.epoch.EpochRecord` just written and the live
:class:`~repro.traffic.queues.LinkQueues`.  No oracle state — no schedule
internals, no SINR maps, no knowledge of the offered rate — which is what
makes the knee estimate honest.

For the sharded engine, :class:`RegionalControllers` composes one
controller per shard of a :class:`~repro.traffic.sharded.ShardPlan`:
sessions are admitted against the cap of the region that sources them, and
each regional controller observes only its region's backlog (plus the
emissions the workload itself booked there) — per-region caps for
federated meshes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from repro.traffic.flows import Flow, FlowWorkload
from repro.traffic.queues import LinkQueues
from repro.traffic.stability import series_slope

#: Controller names understood by :func:`make_controller` (and the E10
#: experiment's profile knobs).
ADMISSION_CONTROLLERS = ("none", "static-cap", "knee-tracker", "backpressure")

#: Sliding-window length (epochs) for the knee tracker's backlog-slope
#: estimate: long enough to smooth Poisson wiggle, short enough to react
#: within a few epochs of crossing the knee.
DEFAULT_WINDOW = 4

#: AIMD constants: additive probe per stable epoch (fraction of the
#: current cap) and multiplicative back-off on a growth signal.  The probe
#: is deliberately gentle — overshooting the knee costs epochs of backlog
#: drain, undershooting only delays goodput.
AIMD_INCREASE = 0.08
AIMD_DECREASE = 0.7

#: Epochs within which a standing (gated) backlog must be on course to
#: drain before the knee tracker dips its cap below the capacity estimate.
#: A standing queue at slope ~ 0 is *bounded* but not free: it taxes every
#: epoch's scheduler with stale demand and every packet with queueing delay.
DRAIN_HORIZON = 16.0

#: Floor (pkt/slot) under the knee tracker's cap.  Both AIMD moves are
#: multiplicative in the cap, so a cap that ever reached exactly 0 — e.g.
#: a growth signal over a window in which nothing was delivered (a slow
#: scheduler eating whole epochs, or a regional tracker whose region went
#: silent) — could never recover and would block every future session
#: forever.  The floor keeps a probe trickle admitted: enough to observe
#: fresh deliveries and re-estimate capacity, the AIMD way out.
CAP_FLOOR = 0.05

#: Backlog-slope test in the style of :mod:`repro.traffic.stability`:
#: growth above ``GROWTH_TOLERANCE`` of the per-epoch arrivals, with the
#: backlog itself past the magnitude gate, reads as "past the knee".  The
#: gate is deliberately *higher* than the offline verdict's (1.5 epochs of
#: arrivals vs 0.5): a controller observes the loop mid-flight, where the
#: in-transit pipeline alone holds roughly one epoch of arrivals (mean
#: delay ~ hundreds of slots), and capping on the fill transient would
#: lock the admitted rate to the fill-phase goodput.
GROWTH_TOLERANCE = 0.05
GROWTH_GATE_FRACTION = 1.5

#: Backpressure: a link is *hot* when its backlog sits in the top
#: ``HOT_FRACTION`` of backlogged links and above ``HOT_GATE_PACKETS``;
#: elastic flows crossing a hot link emit at ``HOT_SLOWDOWN`` of their rate.
HOT_FRACTION = 0.1
HOT_SLOWDOWN = 0.25
HOT_GATE_PACKETS = 20


class _GrowthWindow:
    """Sliding backlog/arrival window with the stability-style growth test.

    Fed one ``(arrivals, backlog)`` sample per epoch; :attr:`growing` is
    True when the backlog slope clears ``GROWTH_TOLERANCE`` of the mean
    per-epoch arrivals *and* the latest backlog clears the
    ``GROWTH_GATE_FRACTION`` magnitude gate — the same two-part test
    :func:`repro.traffic.stability.is_stable` applies to full traces,
    evaluated online over the window.  Its verdicts are read only once it
    is :attr:`filled` (the controller checks that first), so every read
    follows a push.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self._arrivals: deque[float] = deque(maxlen=window)
        self._backlog: deque[float] = deque(maxlen=window)

    def push(self, arrivals: float, backlog: float) -> None:
        self._arrivals.append(float(arrivals))
        self._backlog.append(float(backlog))

    @property
    def filled(self) -> bool:
        """True once the window holds its full complement of epochs —
        verdicts off a partial window are fill-transient noise."""
        return len(self._backlog) >= self.window

    @property
    def mean_arrivals(self) -> float:
        return float(np.mean(self._arrivals))

    @property
    def slope(self) -> float:
        return series_slope(list(self._backlog))

    @property
    def gate_level(self) -> float:
        return GROWTH_GATE_FRACTION * max(self.mean_arrivals, 1.0)

    @property
    def gated(self) -> bool:
        """Is the latest backlog past the magnitude gate?"""
        return bool(self._backlog) and self._backlog[-1] > self.gate_level

    @property
    def growing(self) -> bool:
        slope_trips = self.slope > GROWTH_TOLERANCE * max(self.mean_arrivals, 1.0)
        return slope_trips and self.gated

    def draining_within(self, horizon: float) -> bool:
        """Is the gated backlog on course to clear the gate within
        ``horizon`` epochs at the window's measured slope?  (Trivially true
        when the gate is not tripped.)"""
        if not self.gated:
            return True
        needed = (self._backlog[-1] - self.gate_level) / max(horizon, 1.0)
        return self.slope <= -needed


class AdmissionController:
    """Base controller: admit everything, throttle nothing (``"none"``).

    Subclasses override :meth:`admit` (session arrival -> admit/reject),
    :meth:`throttle` (per-epoch elastic emission factor in [0, 1]) and
    :meth:`observe` (the feedback hook); :meth:`reset` clears observed state
    in place (called by :meth:`FlowWorkload.reset`).
    """

    name = "none"

    #: Does this controller depend on the per-epoch feedback channel?  The
    #: workload refuses to run a feedback-hungry controller whose
    #: ``observe`` was never wired (``on_epoch=workload.observe``) — a
    #: knee tracker that never observes would silently degrade to ``none``
    #: and mislabel an uncontrolled run as controlled.
    needs_feedback = False

    def reset(self) -> None:
        """Forget all observed state (the workload rewound to epoch 0)."""

    def admit(self, flow: Flow, session: FlowWorkload) -> bool:
        return True

    def throttle(self, flow: Flow, session: FlowWorkload) -> float:
        return 1.0

    def observe(
        self, record, queues: LinkQueues, session: FlowWorkload
    ) -> None:
        """Per-epoch feedback: the record just written and the live queues."""


class NoAdmission(AdmissionController):
    """The explicit differential baseline — identical to the base class."""


class _CapController(AdmissionController):
    """Shared cap enforcement: block sessions past the cap, split what is
    left of it between inelastic and elastic flows.

    The cap is an aggregate admitted rate in packets per slot.  Sessions
    are admitted while the active aggregate stays under it (arrival order
    breaks ties); when the active aggregate overshoots — the cap moved
    down after flows were admitted — elastic flows are throttled to the
    fraction of the cap the inelastic (cbr) flows leave over, never below
    zero.  CBR flows are inelastic by definition: once admitted they are
    never slowed, which is exactly why admitting them consumes cap.

    The throttle factor is identical for every elastic flow of an epoch
    (the active set is fixed while the workload's emission loop runs), so
    it is computed once per epoch and memoized — without the memo the
    emission loop would be quadratic in the active-flow count.
    """

    def __init__(self, cap: float):
        self.cap = float(cap)
        self._throttle_memo: tuple[int, float] | None = None

    def reset(self) -> None:
        self._throttle_memo = None

    def admit(self, flow: Flow, session: FlowWorkload) -> bool:
        return session.admitted_rate() + flow.rate <= self.cap

    def throttle(self, flow: Flow, session: FlowWorkload) -> float:
        epoch = getattr(session, "_next_epoch", None)
        if (
            epoch is not None
            and self._throttle_memo is not None
            and self._throttle_memo[0] == epoch
        ):
            return self._throttle_memo[1]
        elastic = session.admitted_rate("elastic")
        if elastic <= 0:
            value = 1.0
        else:
            headroom = self.cap - session.admitted_rate("cbr")
            value = 0.0 if headroom <= 0 else float(min(1.0, headroom / elastic))
        if epoch is not None:
            self._throttle_memo = (epoch, value)
        return value


class StaticCap(_CapController):
    """A fixed admitted-rate cap: the operator knows the knee.

    ``cap`` is the aggregate admitted rate in packets per slot — e.g. the
    E7-measured knee λ* times the number of source nodes, minus whatever
    safety margin the operator wants.
    """

    name = "static-cap"

    def __init__(self, cap: float):
        if cap < 0:
            raise ValueError("cap must be non-negative")
        super().__init__(cap)


class KneeTracker(_CapController):
    """AIMD on the admitted-rate cap: estimate the knee from observables.

    The cap starts unbounded (admit everything).  Every observed epoch the
    tracker pushes ``(arrivals, backlog)`` into its growth window and the
    measured **delivered rate** (packets per slot — the goodput the
    schedule demonstrably carried, protocol overhead already priced in)
    into a matching window.  Then:

    * while the window reads **stable**, a finite cap creeps up by
      :data:`AIMD_INCREASE` (additive probe, a fraction of itself); an
      unbounded cap stays out of the way;
    * on a **growth** signal the cap snaps down to the best delivered
      rate in the window — the demonstrated capacity *is* the knee
      estimate — or, if it already sits at/below that estimate and
      backlog still grows (the estimate was stale: overhead rose, hot
      spots moved), multiplies down by :data:`AIMD_DECREASE`.  Each
      decrease is followed by a ``window``-epoch cooldown so the sliding
      window can flush the pre-decrease growth before it is trusted again;
    * a **standing** queue — past the gate but not on course to drain
      within :data:`DRAIN_HORIZON` epochs — also multiplies the cap down:
      slope ~ 0 with a large resident backlog is bounded, not healthy
      (it taxes every epoch's scheduler with stale demand and every
      packet with queueing delay).

    No move takes the cap below :data:`CAP_FLOOR`.  Everything the tracker
    reads — arrivals, backlog, delivered counts — is in the per-epoch trace
    any deployed controller observes; it is never told λ*.
    """

    name = "knee-tracker"
    needs_feedback = True

    def __init__(self, window: int = DEFAULT_WINDOW):
        super().__init__(float("inf"))
        self.window = window
        self.reset()

    def reset(self) -> None:
        super().reset()
        self.cap = float("inf")
        self._signals = _GrowthWindow(self.window)
        self._delivered: deque[float] = deque(maxlen=self.window)
        self._cooldown = 0
        self.cap_history: list[float] = []

    def observe(self, record, queues: LinkQueues, session: FlowWorkload) -> None:
        # Delivered packets per *slot of the epoch*: the records do not
        # carry the epoch length, but the workload saw it in arrivals().
        slots = session._epoch_slots or 1
        self._signals.push(record.arrivals, record.backlog_end)
        self._delivered.append(record.delivered / max(slots, 1))
        if not self._signals.filled:
            pass
        elif self._cooldown > 0:
            self._cooldown -= 1
        elif self._signals.growing:
            # The best delivered rate in the window is the schedule's
            # demonstrated capacity — the knee estimate the cap snaps to.
            anchor = float(np.max(self._delivered))
            target = anchor if self.cap > anchor else self.cap * AIMD_DECREASE
            self.cap = max(target, CAP_FLOOR)
            self._cooldown = self.window
        elif np.isfinite(self.cap) and not self._signals.draining_within(
            DRAIN_HORIZON
        ):
            # A standing queue is congestion even at slope ~ 0: it taxes
            # every epoch's scheduler with stale demand (and every packet
            # with queueing delay).  Dip below the knee estimate until the
            # backlog is on course to clear the gate within the horizon.
            self.cap = max(self.cap * AIMD_DECREASE, CAP_FLOOR)
            self._cooldown = self.window
        elif np.isfinite(self.cap):
            self.cap = self.cap * (1.0 + AIMD_INCREASE)
        self.cap_history.append(self.cap)


class Backpressure(AdmissionController):
    """Per-route throttling against the most-backlogged links.

    :meth:`observe` snapshots the per-link backlog; a link is *hot* when
    its backlog sits in the top :data:`HOT_FRACTION` of backlogged links
    and above :data:`HOT_GATE_PACKETS`.  Elastic flows whose route crosses
    a hot link are throttled to :data:`HOT_SLOWDOWN`; new sessions routed
    across a hot link are blocked outright (backpressure at the doorstep: a
    session that would feed a standing queue should not start).  Flows
    through quiet regions are untouched — unlike a rate cap, pressure is
    spatial.
    """

    name = "backpressure"
    needs_feedback = True

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._hot: np.ndarray | None = None

    def observe(self, record, queues: LinkQueues, session: FlowWorkload) -> None:
        backlog = queues.backlog
        hot = np.zeros(backlog.shape[0], dtype=bool)
        loaded = backlog > HOT_GATE_PACKETS
        if loaded.any():
            threshold = np.quantile(backlog[loaded], 1.0 - HOT_FRACTION)
            hot = loaded & (backlog >= threshold)
        self._hot = hot

    def _crosses_hot(self, flow: Flow) -> bool:
        return self._hot is not None and bool(self._hot[flow.route].any())

    def admit(self, flow: Flow, session: FlowWorkload) -> bool:
        return not self._crosses_hot(flow)

    def throttle(self, flow: Flow, session: FlowWorkload) -> float:
        return HOT_SLOWDOWN if self._crosses_hot(flow) else 1.0


class RegionalControllers(AdmissionController):
    """One controller per shard of a :class:`~repro.traffic.sharded.ShardPlan`.

    ``factory(shard)`` builds each region's controller (typically a
    :class:`KneeTracker` — per-region caps).  A session is admitted by the
    controller of the region its *source link* belongs to, and throttled
    by the same; regional observation slices the global feedback down to
    the region: its links' backlog, the emissions the workload booked at
    its sources (the regional arrivals — the controller's own admissions,
    not an oracle), the packets served on its own links (differenced from
    the queues' per-link served counters), and the deliveries of the
    sessions it admitted, counted exactly from the queues' source-tagged
    delivery log — each delivery is attributed to the region whose
    controller admitted the injecting flow.  Served and delivered were
    previously *proxied* by the region's emission share; the tagged logs
    make them observables a regional gateway really has.

    The regional :meth:`observe` hands sub-controllers a regional view of
    the record rather than the record itself, so cap logic written against
    global signals works unchanged per region.
    """

    name = "regional"
    needs_feedback = True

    def __init__(self, plan, factory):
        self.plan = plan
        self.factory = factory
        #: Map global link index -> shard index (every link is in one shard).
        shard_of_link = np.full(plan.links.n_links, -1, dtype=np.intp)
        for shard in plan.shards:
            shard_of_link[shard.link_indices] = shard.index
        if np.any(shard_of_link < 0):
            raise ValueError("the plan does not cover every link")
        self._shard_of_link = shard_of_link
        self._link_of_node = plan.links.link_of_node
        self.reset()

    def reset(self) -> None:
        self.regional = [self.factory(shard) for shard in self.plan.shards]
        for controller in self.regional:
            controller.reset()
        # Cursors into the queues' cumulative logs, so each observation
        # attributes only the epoch's *new* served/delivered work.
        self._delivered_seen = 0
        self._served_seen = np.zeros(len(self.regional), dtype=np.int64)

    def _region_of(self, flow: Flow) -> int:
        return int(self._shard_of_link[flow.route[0]])

    def region_of_flow(self, flow: Flow) -> int:
        """The region whose controller owns ``flow`` (by its source link).

        Public so :class:`~repro.traffic.flows.FlowWorkload` can key its
        incremental per-region admitted-rate aggregates on it.
        """
        return self._region_of(flow)

    def admit(self, flow: Flow, session: FlowWorkload) -> bool:
        region = self._region_of(flow)
        return self.regional[region].admit(flow, _RegionalSession(session, self, region))

    def throttle(self, flow: Flow, session: FlowWorkload) -> float:
        region = self._region_of(flow)
        return self.regional[region].throttle(
            flow, _RegionalSession(session, self, region)
        )

    def observe(self, record, queues: LinkQueues, session: FlowWorkload) -> None:
        backlog = queues.backlog
        n_regions = len(self.regional)
        emitted = np.zeros(n_regions, dtype=np.int64)
        of_node = self._link_of_node
        for fid, node, count in session.last_emissions:
            k = of_node[node] if node < of_node.size else -1
            if k >= 0:
                emitted[self._shard_of_link[k]] += count
        # Exact delivered attribution: the queues tag every delivery with
        # its entry link, so the new tail of the delivery log splits by the
        # region that admitted the injecting flow (no emission-share proxy).
        new_sources = queues.sources[self._delivered_seen :]
        self._delivered_seen = len(queues.sources)
        delivered = np.bincount(
            self._shard_of_link[np.asarray(new_sources, dtype=np.intp)],
            minlength=n_regions,
        )
        # Exact served attribution: difference the per-link served counters
        # over each region's own links.
        served_cum = np.array(
            [
                int(queues.served_by_link[shard.link_indices].sum())
                for shard in self.plan.shards
            ],
            dtype=np.int64,
        )
        served = served_cum - self._served_seen
        self._served_seen = served_cum
        for shard, controller in zip(self.plan.shards, self.regional):
            regional_record = replace(
                record,
                arrivals=int(emitted[shard.index]),
                backlog_end=int(backlog[shard.link_indices].sum()),
                served=int(served[shard.index]),
                delivered=int(delivered[shard.index]),
            )
            controller.observe(
                regional_record, queues, _RegionalSession(session, self, shard.index)
            )


class _RegionalSession:
    """A per-region view of the workload for cap arithmetic.

    Exposes the slice of the session API cap controllers consult —
    :meth:`admitted_rate` restricted to flows sourced in the region, plus
    the epoch length — so :class:`_CapController` logic runs unchanged
    with regional denominators.  Served from the workload's incremental
    per-(region, class) aggregates (keyed on
    :meth:`RegionalControllers.region_of_flow`), so a regional cap check
    is O(1) instead of a scan of the global active-flow list.
    """

    def __init__(self, session: FlowWorkload, parent: RegionalControllers, region: int):
        self._session = session
        self._parent = parent
        self._region = region

    @property
    def _epoch_slots(self):
        return self._session._epoch_slots

    @property
    def _next_epoch(self):
        return self._session._next_epoch

    def admitted_rate(self, klass: str | None = None) -> float:
        return self._session.admitted_rate_in_region(self._region, klass)


def make_controller(name: str, cap: float | None = None) -> AdmissionController:
    """Build a controller by registry name (:data:`ADMISSION_CONTROLLERS`);
    ``static-cap`` requires ``cap`` (aggregate pkt/slot)."""
    if name == "none":
        return NoAdmission()
    if name == "static-cap":
        if cap is None:
            raise ValueError("static-cap needs cap= (aggregate pkt/slot)")
        return StaticCap(cap)
    if name == "knee-tracker":
        return KneeTracker()
    if name == "backpressure":
        return Backpressure()
    raise ValueError(
        f"unknown admission controller {name!r}; choose from {ADMISSION_CONTROLLERS}"
    )


# ---------------------------------------------------------------------------
# Per-flow SLA accounting
# ---------------------------------------------------------------------------


def flow_delays(session: FlowWorkload, queues: LinkQueues) -> dict[int, float]:
    """Mean end-to-end delay (slots) per flow, over its delivered packets.

    Packets of flows sharing a source node and epoch are indistinguishable
    in the queues (same birth slot, same FIFO batch), so each delivery
    group — the delivered packets that entered at one source link in one
    epoch — attributes its *mean* delay to every flow that emitted into
    it, weighted by the flow's share of the group's emissions.  Flows none
    of whose packets were delivered yet are absent from the result.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    epoch_slots = session._epoch_slots
    if epoch_slots is None:
        return {}
    for delay, src, birth in zip(queues.delays, queues.sources, queues.births):
        groups.setdefault((int(src), int(birth) // epoch_slots), []).append(delay)

    sums: dict[int, float] = {}
    weights: dict[int, float] = {}
    for key, members in session.emission_groups.items():
        delays = groups.get(key)
        if not delays:
            continue
        group_mean = float(np.mean(delays))
        delivered_share = len(delays) / max(sum(c for _, c in members), 1)
        for fid, count in members:
            credit = count * delivered_share
            sums[fid] = sums.get(fid, 0.0) + group_mean * credit
            weights[fid] = weights.get(fid, 0.0) + credit
    return {
        fid: sums[fid] / weights[fid] for fid in sums if weights[fid] > 0
    }


def flow_delay_percentile(session: FlowWorkload, queues: LinkQueues) -> float:
    """The 99th percentile of per-flow mean delays (nan when no flow has a
    delivered packet yet) — the SLA tail across *users*, not packets."""
    delays = list(flow_delays(session, queues).values())
    if not delays:
        return float("nan")
    return float(np.percentile(np.asarray(delays, dtype=float), 99.0))
