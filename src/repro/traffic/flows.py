"""Flow sessions: the "users" layer above per-node packet arrivals.

The workload generators of :mod:`repro.traffic.generators` offer load as
anonymous per-node packet rates — adequate for locating a scheduler's
stability knee, but not for the questions a network operator actually asks:
how many *user sessions* can the mesh carry, how many must be turned away,
and what service did the admitted ones get?  This module models exactly
that population:

* **Session churn** — new flows arrive as a Poisson process (``session_rate``
  flows per epoch), each bound to a uniformly drawn source node, and depart
  when their *size* — a bounded-Pareto (heavy-tailed) packet count — has
  been fully emitted.  The active-flow population is therefore an M/G/∞-like
  churn process whose long-run offered load is
  ``session_rate * MEAN_FLOW_SIZE`` packets per epoch.
* **Classes** — ``cbr`` flows (voice-like) emit at a fixed rate and are
  *inelastic*: an admission controller may block them at arrival but cannot
  slow them down.  ``elastic`` flows (bulk transfers) emit as fast as their
  token bucket allows and *do* respond to per-epoch throttling.
* **Token-bucket policing** — every flow's emission is policed by its own
  token bucket (fill rate = the flow's admitted rate scaled by the current
  throttle, depth = ``BURST_SLOTS`` worth of tokens), so a throttled flow's
  backlog of intent never bursts into the network when the throttle lifts.

:class:`FlowWorkload` is a stateful :class:`~repro.traffic.generators.
TrafficGenerator` (sequential epochs, like :class:`~repro.traffic.
generators.ParetoOnOff`; :meth:`reset` rewinds), so it drops into any of
the epoch engines unchanged.  Admission decisions are delegated to an
:class:`~repro.traffic.admission.AdmissionController` — the default
``none`` controller admits everything and never throttles, which keeps the
emitted arrivals a pure function of the seed and makes the differential
guard (`controller="none"` ≡ the uncontrolled engine) exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import phase
from repro.scheduling.links import LinkSet
from repro.traffic.generators import TrafficGenerator

#: Flow classes: inelastic constant-bit-rate vs throttleable elastic.
FLOW_CLASSES = ("cbr", "elastic")
#: Mean session size, in packets.  Sizes are bounded Pareto with shape
#: ``FLOW_SIZE_ALPHA`` (heavy tail, finite mean), truncated at
#: ``max_size_factor * MEAN_FLOW_SIZE`` so a single elephant cannot dwarf a
#: short run's statistics.
MEAN_FLOW_SIZE = 30
FLOW_SIZE_ALPHA = 1.8
#: Probability a new session is ``cbr`` (the rest are ``elastic``), and the
#: per-slot emission rate of cbr sessions.
CBR_FRACTION = 0.3
CBR_RATE = 0.02
#: Token-bucket depth, in slots' worth of tokens at the flow's rate.
BURST_SLOTS = 50.0


def route_of(links: LinkSet, node: int) -> np.ndarray:
    """Link indices a packet sourced at ``node`` traverses to its gateway.

    Follows the routing forest's child->parent chain through
    ``links.link_of_node``; the first hop is the node's own link, the last
    is the link into the gateway.  Raises for nodes that head no link
    (gateways source no traffic).
    """
    of_node = links.link_of_node
    k = int(of_node[node]) if 0 <= node < of_node.size else -1
    if k < 0:
        raise ValueError(f"node {int(node)} heads no link (is it a gateway?)")
    route: list[int] = []
    while k >= 0:
        route.append(k)
        k = int(of_node[links.tails[k]])
        if len(route) > links.n_links:
            raise ValueError("routing loop detected while tracing a flow route")
    return np.asarray(route, dtype=np.intp)


@dataclass
class Flow:
    """One user session: a finite packet transfer from a source node.

    Attributes
    ----------
    fid:
        Dense flow id, unique within the workload (also the delay-attribution
        key in :func:`~repro.traffic.admission.flow_delays`).
    source:
        Source node index (heads the first link of :attr:`route`).
    klass:
        ``"cbr"`` (inelastic) or ``"elastic"`` (throttleable).
    rate:
        Nominal emission rate in packets per slot — the token bucket's fill
        rate at throttle 1.
    size:
        Total packets this session transfers before departing.
    born_epoch:
        Epoch the session arrived (admission happens the same epoch).
    route:
        Link indices from source to gateway (for backpressure controllers).
    remaining:
        Packets not yet emitted; the flow departs at 0.
    tokens:
        Token-bucket level, in packets (fractional — emission floors it).
    emitted:
        Packets emitted into the network so far.
    throttled:
        Packets withheld by throttling/policing so far (intent minus
        emission while the bucket was the binding constraint).
    done_epoch:
        Epoch the last packet was emitted, or ``None`` while active.
    """

    fid: int
    source: int
    klass: str
    rate: float
    size: int
    born_epoch: int
    route: np.ndarray
    remaining: int = field(init=False)
    tokens: float = field(default=0.0, init=False)
    emitted: int = field(default=0, init=False)
    throttled: int = field(default=0, init=False)
    done_epoch: int | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.klass not in FLOW_CLASSES:
            raise ValueError(f"klass must be one of {FLOW_CLASSES}, got {self.klass!r}")
        if self.rate <= 0:
            raise ValueError("flow rate must be positive")
        if self.size <= 0:
            raise ValueError("flow size must be positive")
        self.remaining = int(self.size)


@dataclass(frozen=True)
class FlowConfig:
    """Session-population parameters for :class:`FlowWorkload`.

    Attributes
    ----------
    session_rate:
        Mean new sessions per epoch (Poisson).
    elastic_rate:
        Per-slot *peak* emission rate of elastic sessions (their token
        bucket's fill rate at throttle 1).
    max_size_factor:
        Truncation of the size distribution, as a multiple of
        :data:`MEAN_FLOW_SIZE`.
    """

    session_rate: float = 4.0
    elastic_rate: float = 0.05
    max_size_factor: float = 20.0

    def __post_init__(self) -> None:
        if self.session_rate < 0:
            raise ValueError("session_rate must be non-negative")
        if self.elastic_rate <= 0:
            raise ValueError("flow rates must be positive")
        if self.max_size_factor < 1.0:
            raise ValueError("max_size_factor must be >= 1")

    @staticmethod
    def for_offered_rate(
        rate: float, n_sources: int, epoch_slots: int, **kwargs
    ) -> "FlowConfig":
        """A config whose session churn offers ``rate`` pkt/node/slot."""
        return FlowConfig(
            session_rate=rate * n_sources * epoch_slots / MEAN_FLOW_SIZE, **kwargs
        )


def _calibrated_size_minimum(cfg: FlowConfig) -> float:
    """Pareto minimum ``x_m`` whose *truncated* sizes average
    :data:`MEAN_FLOW_SIZE`.

    Sizes are drawn ``min(Pareto(x_m, alpha), cap)`` then ceil'd, with
    ``cap = max_size_factor * MEAN_FLOW_SIZE``.  The closed-form truncated mean

        E[min(X, cap)] = x_m + x_m/(alpha-1) * (1 - (x_m/cap)^(alpha-1))

    is strictly increasing in ``x_m`` on (0, cap], so a bisection pins the
    ``x_m`` whose truncated mean hits ``MEAN_FLOW_SIZE - 0.5`` (the half-packet
    discount cancels the ceil's upward bias).  The naive untruncated
    formula ``mean * (alpha-1)/alpha`` would under-offer every calibrated
    arrival rate by a few percent — enough to mislabel a sweep axis.
    """
    alpha = FLOW_SIZE_ALPHA
    cap = cfg.max_size_factor * MEAN_FLOW_SIZE

    def truncated_mean(x_m: float) -> float:
        return x_m + x_m / (alpha - 1.0) * (1.0 - (x_m / cap) ** (alpha - 1.0))

    target = MEAN_FLOW_SIZE - 0.5
    lo, hi = 1e-12, float(cap)
    if truncated_mean(hi) <= target:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if truncated_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class FlowWorkload(TrafficGenerator):
    """A session-churn arrival process with per-flow admission control.

    Parameters
    ----------
    links:
        The forest link set packets queue on — flow sources are drawn from
        its head nodes and flow routes traced through it.
    config:
        The session-population parameters.
    controller:
        An :class:`~repro.traffic.admission.AdmissionController`; ``None``
        resolves to the pass-through ``none`` controller.  Wire the
        controller's feedback with ``run_epochs(..., on_epoch=
        workload.observe)`` (equivalently for the sharded engine).
    seed:
        Root seed; two workloads with the same seed and the same
        controller decisions replay identical arrivals.

    Like :class:`~repro.traffic.generators.ParetoOnOff` this is a stateful
    renewal-type process: epochs must be consumed in order and
    :meth:`reset` rewinds to epoch 0 (controller state is reset too).
    """

    def __init__(
        self,
        links: LinkSet,
        config: FlowConfig | None = None,
        controller=None,
        seed: int | np.random.Generator | None = None,
    ):
        sources = np.sort(np.asarray(links.heads, dtype=np.intp))
        if sources.size == 0:
            raise ValueError("the link set has no head nodes to source flows at")
        n_nodes = int(max(links.heads.max(), links.tails.max())) + 1
        super().__init__(n_nodes, 0.0, gateways=None, seed=seed)
        self.links = links
        self.config = config or FlowConfig()
        # Imported lazily: admission.py imports Flow/FlowWorkload from here.
        from repro.traffic.admission import AdmissionController, NoAdmission

        if controller is None:
            controller = NoAdmission()
        self.controller = controller
        #: Does this controller actually intervene (override admit or
        #: throttle)?  Behavior-based, not name-based: signaling air is
        #: charged exactly when admission decisions are real decisions, so
        #: a subclass that forgets cosmetic attributes still pays, and pure
        #: observers (and the pass-through baseline) stay silent.
        cls = type(controller)
        self._controller_intervenes = (
            cls.admit is not AdmissionController.admit
            or cls.throttle is not AdmissionController.throttle
        )
        self._sources = sources
        self._routes = {int(s): route_of(links, int(s)) for s in sources}
        self._size_xm = _calibrated_size_minimum(self.config)
        #: Region classifier for per-region admitted-rate aggregates, bound
        #: from the controller when it groups flows spatially
        #: (:meth:`~repro.traffic.admission.RegionalControllers.region_of_flow`).
        self._region_fn = getattr(controller, "region_of_flow", None)
        #: Control ledger for in-band signaling/report pricing, attached by
        #: the engines via :meth:`bind_control` when run with ``control=``.
        self._ledger = None
        #: Observability handle (repro.obs), attached via :meth:`bind_obs`.
        self._obs = None
        self.reset()

    def bind_control(self, ledger) -> None:
        """Price this workload's control traffic into ``ledger``.

        Called by the epoch engines when run with a ``control=``
        :class:`~repro.core.controlplane.ControlPlaneModel`.  Once bound,
        every session offer books one
        ``signal`` message (the admit/deny exchange), every throttled
        elastic flow-epoch books one more (the throttle update), and every
        consumed feedback epoch books the observable-collection ``report``
        messages — one per backlogged link plus the gateway summary — to
        the epoch that reads them.  Controllers that never intervene —
        overriding neither ``admit`` nor ``throttle``, like the
        pass-through ``none`` baseline — book no signaling: no decisions
        are made, so no decision messages exist to pay for (pure observers
        still pay for the observables they consume, via
        ``needs_feedback``).  The final epoch's reports are booked past the
        last record (they describe it, nothing consumes them), so they
        appear in the ledger's totals but in no record — the
        trace-vs-ledger delta is exactly the unconsumed tail batch.

        The engines (re)bind on every run — ``bind_control(None)`` on
        unpriced ones — and :meth:`reset` also unbinds, so a rewound or
        reused workload never keeps charging a previous run's ledger.
        """
        self._ledger = ledger

    def bind_obs(self, obs) -> None:
        """Attach an observability handle (repro.obs); ``None`` unbinds.

        Once bound, the admission phase of every epoch runs inside an
        ``admission.decide`` span and books session counters
        (``admission.offered`` / ``admission.blocked`` /
        ``admission.signals``).  Observe-only: no decision reads the
        handle, so instrumented and bare runs stay bit-identical.  Engines
        rebind per run, and :meth:`reset` unbinds, exactly like
        :meth:`bind_control`.
        """
        self._obs = obs

    # -- TrafficGenerator surface ------------------------------------------

    def reset(self) -> None:
        """Rewind to epoch 0: empty flow table, fresh stats and controller.

        Also unbinds any control ledger and observability handle — the
        next run's engine rebinds from its own ``control=`` / ``obs=``.
        """
        self._ledger = None
        self._obs = None
        self._next_epoch = 0
        self._epoch_slots: int | None = None
        self._observed = False
        self._next_fid = 0
        # All sessions ever admitted, in admission order.
        self.flows: list[Flow] = []
        self.active: list[Flow] = []
        self.sessions_offered = 0
        self.sessions_blocked = 0
        self.packets_emitted = 0
        self.packets_throttled = 0
        #: Incremental admitted-rate aggregates: total, per class, and per
        #: (region, class) when the controller groups flows spatially.
        #: Maintained at admission/departure so :meth:`admitted_rate` is
        #: O(1) instead of rescanning the active-flow list per offered
        #: session (admit used to be O(new x active)).
        self._rate_total = 0.0
        self._rate_by_class: dict[str, float] = {}
        self._rate_by_region: dict[tuple[int, str], float] = {}
        #: Per-epoch admitted emissions ``(fid, source node, count)`` of the
        #: most recent epoch (regional controllers read it in ``observe``).
        self.last_emissions: list[tuple[int, int, int]] = []
        #: Delay-attribution index: ``(source link, epoch) -> [(fid, count)]``.
        self.emission_groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.controller.reset()

    def arrivals(self, epoch: int, n_slots: int) -> np.ndarray:
        if epoch != self._next_epoch:
            raise ValueError(
                f"FlowWorkload is a stateful session process: expected epoch "
                f"{self._next_epoch}, got {epoch}; call reset() to rewind"
            )
        if epoch >= 1 and self.controller.needs_feedback and not self._observed:
            raise RuntimeError(
                f"controller {self.controller.name!r} needs the per-epoch "
                "feedback channel but observe() was never called — wire "
                "on_epoch=workload.observe into the epoch engine, or it "
                "silently degrades to the 'none' baseline"
            )
        self._next_epoch += 1
        self._epoch_slots = n_slots
        cfg = self.config
        rng = self._rng(epoch)

        # 1. Session arrivals, admission-checked one by one (arrival order
        #    is the tie-break when the remaining cap fits only some).
        self._signals = 0  # admit/deny + throttle messages booked this epoch
        offered_before = self.sessions_offered
        blocked_before = self.sessions_blocked
        with phase(self._obs, "admission.decide", epoch=epoch):
            n_new = int(rng.poisson(cfg.session_rate))
            for _ in range(n_new):
                flow = self._draw_flow(rng, epoch)
                self.sessions_offered += 1
                self._offer(flow)
        if self._obs is not None:
            offered = self.sessions_offered - offered_before
            if offered:
                self._obs.counter("admission.offered", offered)
            blocked = self.sessions_blocked - blocked_before
            if blocked:
                self._obs.counter("admission.blocked", blocked)

        # 2. Token-bucket policed emission, throttled per flow.
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        self.last_emissions = []
        still_active: list[Flow] = []
        for flow in self.active:
            throttle = 1.0
            if flow.klass == "elastic":
                throttle = float(
                    np.clip(self.controller.throttle(flow, self), 0.0, 1.0)
                )
                if throttle < 1.0:
                    self._signals += 1  # the throttle-update message
            # Epoch-granularity token bucket: the bucket refills while it
            # drains, so one epoch's allowance is carried tokens plus the
            # (throttled) fill over the epoch; what is left after emission
            # is capped at the bucket depth.
            allowance = flow.tokens + flow.rate * throttle * n_slots
            emit = min(flow.remaining, int(allowance))
            intent = min(flow.remaining, int(flow.rate * n_slots) or 1)
            if emit > 0:
                flow.remaining -= emit
                flow.emitted += emit
                counts[flow.source] += emit
                self.last_emissions.append((flow.fid, flow.source, emit))
                group = self.emission_groups.setdefault(
                    (int(self._routes[flow.source][0]), epoch), []
                )
                group.append((flow.fid, emit))
            flow.tokens = min(allowance - emit, flow.rate * BURST_SLOTS)
            withheld = max(intent - emit, 0)
            flow.throttled += withheld
            self.packets_throttled += withheld
            if flow.remaining == 0:
                flow.done_epoch = epoch
                self._book_departure(flow)
            else:
                still_active.append(flow)
        self.active = still_active
        self.packets_emitted += int(counts.sum())
        if self._signals and self._controller_intervenes:
            if self._ledger is not None:
                self._ledger.charge(epoch, "admission", "signal", self._signals)
            if self._obs is not None:
                self._obs.counter("admission.signals", self._signals)
        return counts

    def observe(self, record, queues) -> None:
        """Per-epoch feedback hook: wire as ``run_epochs(..., on_epoch=...)``.

        Forwards the epoch's record and live queues to the controller — the
        only channel through which controllers see the network (observable
        signals, never oracle state).  On priced runs the observables cost
        air: each backlogged link reports, plus the gateway's summary of
        the record, booked to the epoch that *consumes* them (the next
        one) for any controller that needs the feedback channel.
        """
        self._observed = True
        if self._ledger is not None and self.controller.needs_feedback:
            reports = int((queues.backlog > 0).sum()) + 1
            self._ledger.charge(record.epoch + 1, "admission", "report", reports)
        self.controller.observe(record, queues, self)

    # -- Session-level accounting ------------------------------------------

    @property
    def blocking_probability(self) -> float:
        """Fraction of offered sessions rejected (Erlang's B)."""
        if self.sessions_offered == 0:
            return 0.0
        return self.sessions_blocked / self.sessions_offered

    def admitted_rate(self, klass: str | None = None) -> float:
        """Aggregate nominal rate (pkt/slot) of the active admitted flows,
        optionally restricted to one class — what a cap compares against.

        Served from incrementally maintained aggregates (updated at
        admission and departure), so a controller consulting it per
        offered session stays O(1) rather than rescanning the active-flow
        list; clamped at 0 against float round-off from the add/subtract
        churn.
        """
        if klass is None:
            return max(self._rate_total, 0.0)
        return max(self._rate_by_class.get(klass, 0.0), 0.0)

    def admitted_rate_in_region(self, region: int, klass: str | None = None) -> float:
        """Like :meth:`admitted_rate`, restricted to flows the controller's
        region classifier maps to ``region`` (0.0 when no classifier is
        bound — a regionless controller has no regional aggregate)."""
        if self._region_fn is None:
            return 0.0
        if klass is None:
            total = sum(
                rate
                for (reg, _k), rate in self._rate_by_region.items()
                if reg == region
            )
            return max(total, 0.0)
        return max(self._rate_by_region.get((region, klass), 0.0), 0.0)

    # -- internals ----------------------------------------------------------

    def _offer(self, flow: Flow) -> None:
        """One admission attempt — one admit/deny signaling exchange: the
        session is admitted, or blocked for good."""
        self._signals += 1
        if self.controller.admit(flow, self):
            self.flows.append(flow)
            self.active.append(flow)
            self._book_admit(flow)
        else:
            self.sessions_blocked += 1

    def _book_admit(self, flow: Flow) -> None:
        self._rate_total += flow.rate
        self._rate_by_class[flow.klass] = (
            self._rate_by_class.get(flow.klass, 0.0) + flow.rate
        )
        if self._region_fn is not None:
            key = (int(self._region_fn(flow)), flow.klass)
            self._rate_by_region[key] = self._rate_by_region.get(key, 0.0) + flow.rate

    def _book_departure(self, flow: Flow) -> None:
        self._rate_total -= flow.rate
        self._rate_by_class[flow.klass] = (
            self._rate_by_class.get(flow.klass, 0.0) - flow.rate
        )
        if self._region_fn is not None:
            key = (int(self._region_fn(flow)), flow.klass)
            self._rate_by_region[key] = self._rate_by_region.get(key, 0.0) - flow.rate

    def _draw_flow(self, rng: np.random.Generator, epoch: int) -> Flow:
        cfg = self.config
        source = int(self._sources[rng.integers(self._sources.size)])
        klass = "cbr" if rng.random() < CBR_FRACTION else "elastic"
        rate = CBR_RATE if klass == "cbr" else cfg.elastic_rate
        # Bounded Pareto size: x_m * U^(-1/alpha) truncated at the cap,
        # with x_m calibrated so the *truncated* (and ceil'd) size really
        # averages MEAN_FLOW_SIZE — the naive untruncated formula would offer a
        # few percent less than every swept lambda claims.
        size = self._size_xm / np.power(rng.random(), 1.0 / FLOW_SIZE_ALPHA)
        size = int(np.ceil(min(size, cfg.max_size_factor * MEAN_FLOW_SIZE)))
        fid = self._next_fid
        self._next_fid += 1
        return Flow(
            fid=fid,
            source=source,
            klass=klass,
            rate=rate,
            size=max(size, 1),
            born_epoch=epoch,
            route=self._routes[source],
        )
