"""Epoch-based online rescheduling: the closed traffic/scheduling loop.

Every epoch of ``epoch_slots`` data slots:

1. the workload generator emits this epoch's per-node packet arrivals,
   which enter the per-link queues;
2. the live backlogs are snapshot into a demand vector over the same link
   set, and a scheduler (centralized GreedyPhysical, the FDD/PDD
   distributed protocols, or the serialized baseline) is re-run on it;
3. the scheduler's *protocol overhead* — the air time its distributed
   computation consumed, priced by the :class:`~repro.core.timing.TimingModel`
   — is converted into data slots and charged against the epoch;
4. the remaining slots of the epoch play the computed schedule cyclically,
   each played slot serving one packet on every member link with backlog.

Slots are "data slots" of :data:`SLOT_SECONDS` wall-clock seconds each (a slot
carries one aggregated traffic burst); the control plane's SCREAM microslots
are orders of magnitude shorter, which is what makes online rescheduling
affordable — exactly the paper's argument for recomputing schedules
"whenever traffic demands change".

Step 2 need not re-run the scheduler from scratch: with
``reschedule_policy`` set to ``"drift-threshold"`` or ``"patch"``,
:func:`run_epochs` routes scheduling through a
:class:`~repro.traffic.incremental.ScheduleCache`
that reuses (or locally repairs) the previous schedule while the backlog
snapshot has drifted little from the one the schedule was built for —
cache-hit epochs charge **zero** overhead slots, amortizing a distributed
protocol's air time across quiet epochs (see
:mod:`repro.traffic.incremental`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.controlplane import ControlLedger, ControlPlaneModel, forest_depths
from repro.core.timing import TimingModel
from repro.obs import Obs, phase
from repro.obs import spans as obs_spans
from repro.phy.interference import PhysicalInterferenceModel, SlotSinrMemo
from repro.phy.radio import RateTable
from repro.phy.truth import TruthReport
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.greedy_rate import greedy_rate
from repro.scheduling.linear import linear_schedule
from repro.scheduling.links import LinkSet
from repro.scheduling.schedule import Schedule
from repro.topology.network import Network
from repro.traffic.generators import TrafficGenerator
from repro.traffic.queues import LinkQueues
from repro.util.ranges import join, split_at
from repro.util.rng import freeze_root, spawn

if TYPE_CHECKING:  # sharded.py imports this module
    from repro.traffic.sharded import ShardPlan


@dataclass(frozen=True)
class EpochSchedule:
    """A scheduler's answer for one epoch: the schedule plus its air cost."""

    schedule: Schedule
    overhead_seconds: float = 0.0


#: A scheduler usable by the epoch loop: ``(links_with_demand, epoch) ->``
#: :class:`EpochSchedule`.  ``links`` carries the backlog snapshot as its
#: demand vector; ``epoch`` lets distributed schedulers derive per-epoch rngs.
EpochSchedulerFn = Callable[[LinkSet, int], EpochSchedule]

#: Rescheduling policies understood by the epoch loop.
#:
#: * ``"always"``        — re-run the scheduler every epoch (the default);
#: * ``"drift-threshold"`` — reuse the cached schedule while drift stays under
#:   the threshold, full re-run otherwise;
#: * ``"patch"``         — like ``drift-threshold``, but on a miss first try
#:   to patch the cached schedule and only re-run when patching fails.
RESCHEDULE_POLICIES = ("always", "drift-threshold", "patch")

#: Wall-clock duration of one data slot (seconds): converts a distributed
#: scheduler's execution time into whole data slots of overhead.
SLOT_SECONDS = 0.04


@dataclass(frozen=True)
class EpochConfig:
    """Epoch-loop parameters.

    Attributes
    ----------
    epoch_slots:
        Data slots per epoch (the rescheduling period ``T``).
    n_epochs:
        Epochs to simulate.
    demand_cap:
        Optional per-link cap on the scheduled backlog snapshot (a link can
        serve at most ``epoch_slots`` packets per epoch anyway, so capping
        bounds scheduler cost in overload without changing stable behaviour).
    divergence_factor:
        When set, stop early once the end-of-epoch backlog exceeds this
        multiple of the *mean* per-epoch arrivals so far — the signature of
        an unstable operating point (the trace is marked ``diverged``).
        Averaging keeps one quiet epoch of a bursty workload from reading
        a draining post-burst backlog as divergence.
    reschedule_policy:
        ``"always"`` re-runs the scheduler every epoch (the default);
        ``"drift-threshold"`` reuses the cached schedule while the backlog
        snapshot's drift stays at or under
        :data:`~repro.traffic.incremental.DRIFT_THRESHOLD` (scaled
        by the schedule's service headroom); ``"patch"`` additionally
        repairs the cached schedule on a miss before falling back to a full
        re-run, on a dense model only (:func:`run_epochs` refuses it on a
        sparse one before the first arrival).  See
        :mod:`repro.traffic.incremental`.  The sharded engine runs
        ``"always"`` only.
    rate_table:
        Optional :class:`~repro.phy.radio.RateTable` switching the serving
        contract from fixed-rate (every scheduled membership forwards one
        packet) to multi-rate: each played membership forwards the packets
        of its SINR-selected MCS tier, with hysteresis damping tier churn
        across epochs (see :class:`RateAnnotator`).  Requires ``model`` to
        be passed to the run; the sharded engine rejects a table.  ``None``
        (the default) and the degenerate single-tier table are both
        bit-identical to the seed fixed-rate behaviour (the multirate
        differential suite pins the latter).
    retain_records:
        ``"full"`` (the default) keeps every :class:`EpochRecord` on the
        trace; ``"stream"`` keeps only the O(1) running aggregates plus
        the latest record, so a million-epoch run has bounded RSS.  The
        aggregate properties (totals, cache rates, the divergence guard)
        read the same account in both modes;
        :meth:`TrafficTrace.backlog_series` needs the list and fails
        loudly without it.
    """

    epoch_slots: int = 300
    n_epochs: int = 10
    demand_cap: int | None = None
    divergence_factor: float | None = None
    reschedule_policy: str = "always"
    rate_table: RateTable | None = None
    retain_records: str = "full"

    def __post_init__(self) -> None:
        if self.epoch_slots <= 0:
            raise ValueError("epoch_slots must be positive")
        if self.n_epochs <= 0:
            raise ValueError("n_epochs must be positive")
        if self.demand_cap is not None and self.demand_cap <= 0:
            raise ValueError("demand_cap must be positive when given")
        if self.divergence_factor is not None and self.divergence_factor <= 0:
            raise ValueError("divergence_factor must be positive when given")
        if self.reschedule_policy not in RESCHEDULE_POLICIES:
            raise ValueError(
                f"reschedule_policy must be one of {RESCHEDULE_POLICIES}, "
                f"got {self.reschedule_policy!r}"
            )
        if self.retain_records not in ("full", "stream"):
            raise ValueError(
                f"retain_records must be 'full' or 'stream', "
                f"got {self.retain_records!r}"
            )


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch accounting."""

    epoch: int
    arrivals: int
    served: int  # packet-hops transmitted this epoch
    delivered: int  # packets that reached a gateway this epoch
    backlog_end: int
    demand_scheduled: int
    schedule_length: int
    overhead_slots: int  # clamped to epoch_slots: overhead can eat at most the epoch
    cache_hit: bool = False  # schedule reused from cache, zero overhead
    patched: bool = False  # schedule repaired in place, zero overhead
    drift: float = 0.0  # snapshot drift vs the cached baseline (0 when uncached)
    # In-band control accounting (repro.core.controlplane): the slice of
    # overhead_slots attributable to priced control messages, and the
    # messages booked to this epoch.  Both stay 0 on unpriced runs, so
    # records compare epoch-for-epoch across priced-at-zero and bare runs.
    control_slots: int = 0
    control_messages: int = 0
    # Shard-aware accounting (repro.traffic.sharded); both stay at their
    # defaults on monolithic runs, so records compare epoch-for-epoch across
    # the two engines.
    n_shards: int = 1  # spatial shards that scheduled this epoch's demand
    reconciled: int = 0  # memberships serialized by the reconciliation pass


@dataclass
class TrafficTrace:
    """Outcome of a full epoch-loop run.

    ``scheduling_seconds`` is the measured thread-CPU time spent inside
    scheduler calls across the run; ``critical_path_seconds`` is the same
    quantity on the deployment's critical path — for the monolithic loop the
    two are equal (one scheduler, one controller), while the sharded engine
    records the per-epoch *maximum* over its concurrently computing regions
    (see :mod:`repro.traffic.sharded`), which is what wall-clock means when
    every region has its own controller.  Both are ``None`` — not a silent
    0.0 — when the platform provides no per-thread CPU clock
    (:data:`repro.obs.spans.CPU_CLOCK`), so "not measured" can never be
    mistaken for "free"; tables render the un-instrumented case as ``~``.

    ``scheduling_wall_seconds`` is the elapsed (``perf_counter``) time the
    *simulation host* spent in the scheduling phase each epoch, summed over
    the run.  It brackets ``scheduling_seconds`` from above (one thread,
    so wall >= CPU); for the sharded engine it measures the whole serial
    fan-out, every shard one after another, while ``critical_path_seconds``
    models the regions computing concurrently.  Always measured
    (perf_counter needs no platform support).
    """

    config: EpochConfig
    records: list[EpochRecord] = field(default_factory=list)
    diverged: bool = field(default=False, init=False)
    queues: LinkQueues | None = None
    scheduling_seconds: float | None = field(default=None, init=False)
    critical_path_seconds: float | None = field(default=None, init=False)
    scheduling_wall_seconds: float | None = field(default=None, init=False)
    #: In-band control-plane account of the run, or ``None`` when the
    #: engine ran unpriced (no ``control=`` model given).
    ledger: ControlLedger | None = None
    #: The plan a sharded run scheduled along; ``None`` on monolithic runs.
    plan: ShardPlan | None = None
    # O(1) running aggregates, maintained by :meth:`book` — the single
    # account behind every total below.
    _n_booked: int = field(default=0, init=False, repr=False)
    _arrivals: int = field(default=0, init=False, repr=False)
    _delivered: int = field(default=0, init=False, repr=False)
    _overhead_slots: int = field(default=0, init=False, repr=False)
    _control_slots: int = field(default=0, init=False, repr=False)
    _control_messages: int = field(default=0, init=False, repr=False)
    _cache_hits: int = field(default=0, init=False, repr=False)
    _patched: int = field(default=0, init=False, repr=False)
    _requests: int = field(default=0, init=False, repr=False)
    _reconciled: int = field(default=0, init=False, repr=False)
    _last_record: EpochRecord | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # A record list handed to the constructor is booked like any other.
        handed, self.records = self.records, []
        for record in handed:
            self.book(record)

    @property
    def streaming(self) -> bool:
        """True when the trace keeps aggregates instead of the record list."""
        return self.config.retain_records == "stream"

    def book(self, record: EpochRecord) -> EpochRecord:
        """Account one epoch's record; the single booking point.

        Updates the O(1) aggregates and remembers the record as
        :attr:`last_record`; appends to :attr:`records` only in full mode.
        Returns the record for convenience.
        """
        self._n_booked += 1
        self._arrivals += record.arrivals
        self._delivered += record.delivered
        self._overhead_slots += record.overhead_slots
        self._control_slots += record.control_slots
        self._control_messages += record.control_messages
        self._cache_hits += 1 if record.cache_hit else 0
        self._patched += 1 if record.patched else 0
        self._requests += 1 if record.demand_scheduled > 0 else 0
        self._reconciled += record.reconciled
        self._last_record = record
        if not self.streaming:
            self.records.append(record)
        return record

    @property
    def last_record(self) -> EpochRecord | None:
        """The most recent epoch record, whatever the retention mode."""
        return self._last_record

    @property
    def n_epochs_run(self) -> int:
        return self._n_booked

    @property
    def total_slots(self) -> int:
        return self.n_epochs_run * self.config.epoch_slots

    @property
    def delivered_total(self) -> int:
        return self._delivered

    @property
    def arrivals_total(self) -> int:
        return self._arrivals

    @property
    def overhead_slots_total(self) -> int:
        """Protocol overhead paid across the run, in data slots."""
        return self._overhead_slots

    @property
    def control_slots_total(self) -> int:
        """Data slots of overhead attributable to priced control messages."""
        return self._control_slots

    @property
    def control_messages_total(self) -> int:
        """Control messages booked across the run (counted even when free)."""
        return self._control_messages

    @property
    def cache_hits(self) -> int:
        """Epochs served from the schedule cache (reused verbatim)."""
        return self._cache_hits

    @property
    def patched_epochs(self) -> int:
        """Epochs served by a patched (locally repaired) schedule."""
        return self._patched

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of *scheduling requests* answered from cache.

        Zero-demand epochs never invoke the scheduler, so they count
        neither way — a bursty workload that drains between bursts is not
        penalized for the epochs it asked nothing of the cache (the
        account :class:`~repro.traffic.incremental.CacheStats` keeps).
        """
        if self._requests == 0:
            return 0.0
        return (self._cache_hits + self._patched) / self._requests

    @property
    def reconciled_total(self) -> int:
        """Memberships serialized by cross-shard reconciliation (0 monolithic)."""
        return self._reconciled

    def backlog_series(self) -> np.ndarray:
        if self.streaming:
            raise RuntimeError(
                "backlog_series needs the full record list; this trace ran "
                "with retain_records='stream' — use the aggregate properties "
                "or last_record, or rerun with retain_records='full'"
            )
        return np.asarray([r.backlog_end for r in self.records], dtype=np.int64)

    def summary(self) -> str:
        tail = " DIVERGED" if self.diverged else ""
        last = self.last_record
        backlog = last.backlog_end if last is not None else 0
        return (
            f"TrafficTrace(epochs={self.n_epochs_run}, "
            f"arrivals={self.arrivals_total}, delivered={self.delivered_total}, "
            f"backlog={backlog}{tail})"
        )


def overhead_to_slots(overhead_seconds: float, config: EpochConfig) -> int:
    """Whole data slots a scheduler's air time consumes, clamped to the epoch.

    A scheduler slower than the epoch consumes the whole epoch and serves
    nothing — never a negative remainder, never a modulo wrap, and the
    recorded overhead never exceeds ``epoch_slots``.
    """
    return min(math.ceil(overhead_seconds / SLOT_SECONDS), config.epoch_slots)


def priced_overhead_slots(
    base_seconds: float,
    ledger: ControlLedger | None,
    epoch: int,
    config: EpochConfig,
) -> tuple[int, int]:
    """One epoch's ``(overhead_slots, control_slots)`` under in-band pricing.

    The epoch's control messages (whatever any layer booked to ``epoch`` in
    the ledger) serialize on the same air as the scheduler's own execution,
    so their seconds add to ``base_seconds`` before the slot conversion;
    ``control_slots`` is the resulting increment over the unpriced charge.
    With no ledger — or a ledger whose model prices every class at zero —
    the charge is exactly the pre-pricing ``overhead_to_slots(base_seconds)``:
    a zero charge adds ``0.0`` seconds, which is the bit-identity behind the
    differential tests.
    """
    base_slots = overhead_to_slots(base_seconds, config)
    if ledger is None:
        return base_slots, 0
    total = overhead_to_slots(base_seconds + ledger.seconds_for(epoch), config)
    return total, total - base_slots


def trace_diverged(trace: TrafficTrace, config: EpochConfig) -> bool:
    """Has the end-of-epoch backlog crossed the divergence guard?

    True when ``config.divergence_factor`` is set and the latest recorded
    backlog exceeds that multiple of the mean per-epoch arrivals so far —
    the early-stop signature of an unstable operating point.
    """
    last = trace.last_record
    if config.divergence_factor is None or last is None:
        return False
    mean_arrivals = trace.arrivals_total / trace.n_epochs_run
    return (
        mean_arrivals > 0
        and last.backlog_end > config.divergence_factor * mean_arrivals
    )


class RateAnnotator:
    """Per-run MCS selection state for multi-rate serving.

    Owns the hysteresis memory of :meth:`RateTable.select`: for every link
    it remembers the tier last granted, so a link whose slot SINR hovers on
    a tier edge cannot flap between tiers from one epoch's round to the
    next.  :meth:`annotate` turns one flat round into the tier and
    packets-per-slot of every membership, reading each slot's concurrent
    SINR through the run's :class:`~repro.phy.interference.SlotSinrMemo`
    (monolithic runs only: the sharded engine serves at fixed rate).

    Tiers are clamped to the base tier: membership was established by the
    ``SINR >= β`` scheduling contract and the seed serves one packet per
    play regardless, so under the degenerate table every annotation is rate
    1 and serving is bit-identical to the fixed-rate path.
    """

    def __init__(self, sinrs: SlotSinrMemo, table: RateTable):
        self.table = table
        self._sinrs = sinrs
        self._prev = np.full(sinrs.alone.size, -1, dtype=np.int64)  # one per link

    def annotate(self, members: np.ndarray, ends: list[int]) -> tuple[np.ndarray, ...]:
        """(tiers, rates) of every membership of the round ``members`` (slot
        ``t`` is ``members[ends[t - 1]:ends[t]]``), updating state.

        The round's SINRs come from one memo read of the flat round (lone
        members from the standalone SINRs, the shared slots the memo —
        keyed by member tuple, shared with the run's patch cache — does
        not hold in one batch), so a replayed or patched schedule costs no
        SINR evaluation at all.  Hysteresis
        runs in slot order — a link that sits in
        several slots of the round carries the tier it was granted in one
        slot into the next — so tiers are selected by occurrence rank: every
        link's first appearance in one ``select``, then every second, …: as
        many passes as the busiest link has slots, not one per slot — and a
        table without hysteresis never reads the memory, so one pass.
        """
        table = self.table
        worst = self._sinrs(members, ends)
        passes = [slice(None)]  # a repeated link keeps its last slot's tier
        if table.hysteresis != 1.0 and members.size:
            # nth[i]: how many earlier entries of the round list member i's link.
            by_link = np.argsort(members, kind="stable")
            runs = np.flatnonzero(np.r_[True, np.diff(members[by_link]) != 0, True])
            nth = np.empty(members.size, dtype=np.intp)
            nth[by_link] = np.arange(members.size) - np.repeat(runs[:-1], np.diff(runs))
            ranks = np.cumsum(np.bincount(nth)).tolist()
            passes = split_at(np.argsort(nth, kind="stable"), ranks)
        tiers = np.empty(members.size, dtype=np.int64)
        for now in passes:
            granted = np.maximum(table.select(worst[now], self._prev[members[now]]), 0)
            self._prev[members[now]] = tiers[now] = granted
        return tiers, table.rates[tiers]


def book_epoch_obs(obs: Obs | None, record: EpochRecord, engine: str) -> None:
    """Book one epoch record's counters/gauges into an obs registry.

    The per-epoch metric surface shared by both engines: monotone counters
    for flow (arrivals/served/delivered), overhead and control slots, cache
    outcomes and reconciliations, plus a backlog gauge.  No-op when obs is
    off — and always passive either way.
    """
    if obs is None:
        return
    obs.counter("traffic.arrivals", record.arrivals, engine=engine)
    obs.counter("traffic.served", record.served, engine=engine)
    obs.counter("traffic.delivered", record.delivered, engine=engine)
    obs.counter("traffic.overhead_slots", record.overhead_slots, engine=engine)
    if record.control_slots:
        obs.counter("traffic.control_slots", record.control_slots, engine=engine)
    if record.reconciled:
        obs.counter("traffic.reconciled", record.reconciled, engine=engine)
    obs.gauge("traffic.backlog", record.backlog_end, engine=engine)
    obs.gauge("traffic.epochs_run", record.epoch + 1, engine=engine)


def book_rate_obs(
    obs: Obs | None,
    tiers: np.ndarray | None,
    served: int,
    plays: int,
    engine: str,
) -> None:
    """Book one epoch's multi-rate serving metrics.

    Per-tier ``rate.selected`` counters (how many memberships the round's
    annotation granted each MCS tier, ``tiers`` one per membership) plus a
    ``rate.delivered`` histogram observation of the epoch's realized
    packets per play — exactly 1.0 under the degenerate table, drifting
    upward as links win higher tiers.  No-op on fixed-rate runs (``tiers
    is None``) or with obs off; always passive.
    """
    if obs is None or tiers is None:
        return
    for tier, count in zip(*np.unique(tiers, return_counts=True)):
        obs.counter("rate.selected", int(count), engine=engine, tier=int(tier))
    if plays > 0:
        obs.observe("rate.delivered", served / plays, engine=engine)


def book_truth_obs(obs: Obs | None, reports: list[TruthReport], engine: str) -> None:
    """Book what the schedulers' exact-model verify-and-repair passes found.

    ``truth.violations`` (members that failed ``SINR >= β`` as packed),
    ``truth.repaired_tx`` (memberships re-packed), ``truth.repair_rounds``
    and ``truth.check_elements`` (member pairs the exact check evaluated,
    a deterministic work count) counters under the engine's scheduling
    phase, and every kept member's margin into the ``sinr.margin``
    histogram.  The reports are what the repair computed anyway; no-op
    with obs off, always passive.
    """
    if obs is None:
        return
    labels = {"engine": engine, "phase": f"{engine}.schedule"}
    for report in reports:
        obs.counter("truth.violations", report.violations, **labels)
        obs.counter("truth.check_elements", report.check_elements, **labels)
        obs.counter("truth.repaired_tx", report.repaired_tx, **labels)
        obs.counter("truth.repair_rounds", report.repair_rounds, **labels)
        obs.observe_many("sinr.margin", report.margins, **labels)


def finish_run_obs(obs: Obs | None, trace: TrafficTrace, engine: str) -> None:
    """End-of-run bookings: the delay distribution and run-level gauges."""
    if obs is None or trace.queues is None:
        return
    delays = trace.queues.delay_array()
    if delays.size:
        obs.observe_many("traffic.delay_slots", delays, engine=engine, region="all")
    if trace.diverged:
        obs.counter("traffic.diverged", 1, engine=engine)


def bind_workload(generator: TrafficGenerator, ledger, obs: Obs | None) -> None:
    """(Re)bind a workload's optional ``bind_control`` / ``bind_obs`` hooks.

    Session workloads (:class:`~repro.traffic.flows.FlowWorkload`) price
    their signalling into the run's control ledger and book into its obs
    handle; plain generators have neither hook and are left alone.  The
    epoch loop calls this on every run — with ``None`` handles on unpriced
    / unobserved runs — so a workload reused across runs never keeps
    charging a previous run's ledger.
    """
    for hook, handle in (("bind_control", ledger), ("bind_obs", obs)):
        bind = getattr(generator, hook, None)
        if bind is not None:
            bind(handle)


@dataclass
class ScheduledRound:
    """A scheduling stage's answer for one epoch with demand: what to play.

    ``members`` holds the link indices of (at least) the first
    ``epoch_slots`` of the round's ``length`` slots — all an epoch can play
    — back to back, slot ``t`` ending at ``ends[t]`` (an empty slot repeats
    the previous end);
    ``cpu_s`` / ``critical_s`` / ``wall_s`` are its increments of the three
    :class:`TrafficTrace` timing fields; ``truth`` holds the exact-model
    reports of the schedules it was built from (those that carry one) and
    of the sharded reconciliation that verified it.  The defaults are an
    idle epoch.
    """

    members: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    ends: list[int] = field(default_factory=list)
    length: int = 0
    overhead_seconds: float = 0.0
    cpu_s: float | None = None
    critical_s: float | None = None
    wall_s: float = 0.0
    cache_hit: bool = False
    patched: bool = False
    drift: float = 0.0
    reconciled: int = 0
    truth: list[TruthReport] = field(default_factory=list)


def schedule_truth(schedules: list[Schedule]) -> list[TruthReport]:
    """The exact-model reports riding on ``schedules``."""
    return [s.truth for s in schedules if s.truth is not None]


def epoch_loop(
    links: LinkSet,
    generator: TrafficGenerator,
    stage: Callable[[np.ndarray, int], ScheduledRound],
    cfg: EpochConfig,
    ledger: ControlLedger | None,
    sinrs: SlotSinrMemo | None,
    on_epoch: Callable[[EpochRecord, LinkQueues], None] | None,
    obs: Obs | None,
    engine: str,
    plan: ShardPlan | None = None,
) -> TrafficTrace:
    """The closed arrival/reschedule/serve loop behind both engines.

    Owns everything they share (DESIGN.md §6) and asks ``stage``,
    ``(snapshot, epoch) ->`` :class:`ScheduledRound`, for the one thing they
    do differently.  The stage may charge ``ledger`` for its epoch: the
    round is priced after it returns.  Slots are rate-annotated under
    ``cfg.rate_table`` through ``sinrs``, the run's SINR memo (``None``
    exactly when there is no rate table); ``engine`` labels every span and
    metric; ``plan`` is the sharded engine's.
    """
    if ledger is not None:
        ledger.bind_obs(obs)
    bind_workload(generator, ledger, obs)
    annotator = None if sinrs is None else RateAnnotator(sinrs, cfg.rate_table)
    queues = LinkQueues(links)
    trace = TrafficTrace(config=cfg, queues=queues, ledger=ledger, plan=plan)
    if obs_spans.CPU_CLOCK is not None:
        trace.scheduling_seconds = 0.0
        trace.critical_path_seconds = 0.0
    # Wall-clock needs only perf_counter, which is always available.
    trace.scheduling_wall_seconds = 0.0
    T = cfg.epoch_slots

    for epoch in range(cfg.n_epochs):
        start = epoch * T
        with phase(obs, "epoch.arrivals", engine=engine, epoch=epoch):
            arrived = queues.arrive(generator.arrivals(epoch, T), start)

        snapshot = queues.backlog.copy()
        if cfg.demand_cap is not None:
            np.minimum(snapshot, cfg.demand_cap, out=snapshot)
        served = 0
        delivered_before = queues.delivered_total
        overhead_slots = control_slots = 0
        planned = ScheduledRound()

        if snapshot.sum() > 0:
            try:
                planned = stage(snapshot, epoch)
            except Exception as err:
                # Arrivals for this epoch are already booked; nothing may
                # read these queues as if the epoch completed.
                queues.mark_unusable(str(err))
                raise
            if planned.cpu_s is not None and trace.scheduling_seconds is not None:
                trace.scheduling_seconds += planned.cpu_s
                trace.critical_path_seconds += planned.critical_s
            trace.scheduling_wall_seconds += planned.wall_s
            if not planned.cache_hit:  # a replayed schedule was booked when built
                book_truth_obs(obs, planned.truth, engine)
            with phase(obs, "epoch.control", engine=engine, epoch=epoch):
                overhead_slots, control_slots = priced_overhead_slots(
                    planned.overhead_seconds, ledger, epoch, cfg
                )
            # Only the first T - overhead slots can ever play (the cyclic
            # index stays below the window when the round is longer).
            ends = planned.ends[: T - overhead_slots]
            members = planned.members[: ends[-1] if ends else 0]
            tiers = rates = None
            if annotator is not None:
                with phase(obs, "epoch.annotate", engine=engine, epoch=epoch):
                    tiers, rates = annotator.annotate(members, ends)
            plays_before = queues.plays_total
            with phase(obs, "epoch.serve", engine=engine, epoch=epoch):
                served = queues.play(members, ends, start, T, overhead_slots, rates)
            book_rate_obs(obs, tiers, served, queues.plays_total - plays_before, engine)
        elif ledger is not None:
            # No demand, hence no scheduler run — but control messages
            # booked to this epoch (e.g. session signaling into an idle
            # mesh) still consumed air.
            overhead_slots, control_slots = priced_overhead_slots(
                0.0, ledger, epoch, cfg
            )

        record = trace.book(
            EpochRecord(
                epoch=epoch,
                arrivals=arrived,
                served=served,
                delivered=queues.delivered_total - delivered_before,
                backlog_end=queues.total_backlog(),
                demand_scheduled=int(snapshot.sum()),
                schedule_length=planned.length,
                overhead_slots=overhead_slots,
                cache_hit=planned.cache_hit,
                patched=planned.patched,
                drift=planned.drift,
                control_slots=control_slots,
                control_messages=(
                    ledger.messages_for(epoch) if ledger is not None else 0
                ),
                n_shards=1 if plan is None else plan.n_shards,
                reconciled=planned.reconciled,
            )
        )
        book_epoch_obs(obs, record, engine=engine)
        if on_epoch is not None:
            on_epoch(record, queues)
        if trace_diverged(trace, cfg):
            trace.diverged = True
            break
    finish_run_obs(obs, trace, engine=engine)
    return trace


def run_epochs(
    links: LinkSet,
    generator: TrafficGenerator,
    scheduler: EpochSchedulerFn,
    config: EpochConfig | None = None,
    model: PhysicalInterferenceModel | None = None,
    on_epoch: Callable[[EpochRecord, LinkQueues], None] | None = None,
    control: ControlPlaneModel | None = None,
    obs: Obs | None = None,
) -> TrafficTrace:
    """Run the closed arrival/reschedule/serve loop; return its trace.

    When ``config.reschedule_policy`` is not ``"always"`` the scheduler is
    wrapped in a fresh :class:`~repro.traffic.incremental.ScheduleCache`
    (``model`` is required for the ``"patch"`` policy's SINR checks); a
    :class:`~repro.traffic.incremental.ScheduleCache` passed directly as
    ``scheduler`` is used as-is, whatever the policy says, and its per-epoch
    decisions are recorded either way.

    ``on_epoch`` is the loop's observable feedback channel: called after
    every epoch's record is appended, with the record and the live queues.
    Admission controllers (:mod:`repro.traffic.admission`) hang off it —
    wire ``on_epoch=workload.observe`` — and it must not mutate the queues.

    ``control`` opts the run into in-band control-plane pricing
    (:mod:`repro.core.controlplane`): a :class:`ControlLedger` is opened on
    the trace, the schedule cache's patch distribution is priced along the
    routing forest, and a session workload with a ``bind_control`` hook
    (:class:`~repro.traffic.flows.FlowWorkload`) books its signaling and
    observable-collection messages into the same ledger.  Each epoch's
    booked control seconds ride the epoch's overhead
    (:func:`priced_overhead_slots`).  With all prices zero the run is
    bit-identical to ``control=None``.

    ``obs`` attaches a :class:`~repro.obs.Obs` instrument (metrics +
    phase spans + optional JSONL recording; see :mod:`repro.obs`).
    Observability is strictly passive — it consumes no RNG and mutates no
    engine state, so the trace is bit-identical with ``obs=None``, a null
    recorder, or an active JSONL recorder (the differential tests pin
    this).  The caller owns the handle: call ``obs.export()`` after the
    run(s) to flush the JSONL file.

    A scheduler that raises aborts the run with its own exception and leaves
    the queues marked unusable: that epoch's arrivals were never served.
    """
    # Imported here: incremental.py imports EpochSchedule from this module.
    from repro.traffic.incremental import ScheduleCache

    cfg = config or EpochConfig()
    ledger = ControlLedger(control) if control is not None else None
    # One SINR memo per run: the rate annotator's, and the cache's too when
    # the cache judges slots under the same model.
    sinrs = None
    if cfg.rate_table is not None:
        if model is None:
            raise ValueError(
                "config.rate_table needs the interference oracle: pass model= "
                "so served slots can be rate-annotated from their SINR"
            )
        sinrs = SlotSinrMemo(model, links.heads, links.tails)
    if not isinstance(scheduler, ScheduleCache) and cfg.reschedule_policy != "always":
        scheduler = ScheduleCache(
            scheduler,
            policy=cfg.reschedule_policy,
            model=model,
            epoch_slots=cfg.epoch_slots,
            rate_table=cfg.rate_table,
        )
    if isinstance(scheduler, ScheduleCache):
        # Bind this run's handles, ``None`` included: this run's control
        # model — priced, free, or absent — governs the run, so a cache
        # reused from an earlier run must not keep charging that run's ledger.
        depths = forest_depths(links) if ledger is not None else None
        scheduler.bind_control(ledger, depths)
        scheduler.bind_obs(obs)
        scheduler.bind_sinrs(sinrs)

    def stage(snapshot: np.ndarray, epoch: int) -> ScheduledRound:
        demand_links = replace(links, demand=snapshot)
        # A measuring span replaces the historical ad-hoc clock pair: its
        # thread-CPU delta (not wall, which would also charge whatever else
        # the host ran meanwhile) feeds the public trace fields, and at
        # spans level it is recorded too.
        with phase(
            obs, "epoch.schedule", measure=True, engine="epoch", epoch=epoch
        ) as span:
            planned = scheduler(demand_links, epoch)
        decision = getattr(scheduler, "last_decision", None)
        # One scheduler, one controller: its CPU is the critical path.  An
        # epoch plays at most epoch_slots slots, so only those are handed on.
        played = planned.schedule.slots[: cfg.epoch_slots]
        members, ends = join([slot.links for slot in played])
        return ScheduledRound(
            members=members,
            ends=ends,
            length=planned.schedule.length,
            overhead_seconds=planned.overhead_seconds,
            cpu_s=span.cpu_s,
            critical_s=span.cpu_s,
            wall_s=span.wall_s,
            cache_hit=decision is not None and decision.hit,
            patched=decision is not None and decision.patched,
            # A recompute with no cached baseline measured no drift (inf).
            drift=(
                decision.drift
                if decision is not None and math.isfinite(decision.drift)
                else 0.0
            ),
            truth=schedule_truth([planned.schedule]),
        )

    return epoch_loop(
        links, generator, stage, cfg, ledger, sinrs, on_epoch, obs, engine="epoch"
    )


# --------------------------------------------------------------------------
# Scheduler adapters
# --------------------------------------------------------------------------


def serialized_scheduler() -> EpochSchedulerFn:
    """The zero-overhead worst case: one link per slot (TDMA round-robin)."""

    def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
        return EpochSchedule(linear_schedule(links))

    return schedule


def centralized_scheduler(
    model: PhysicalInterferenceModel, overhead_seconds: float = 0.0
) -> EpochSchedulerFn:
    """GreedyPhysical re-run on every epoch's backlog snapshot, in its
    default order: decreasing ID on an exact model, decreasing hashed ID on
    a truncated sparse one (:func:`~repro.scheduling.greedy_physical.greedy_physical`).

    ``overhead_seconds`` lets callers charge a fixed cost for shipping
    backlogs to and schedules from a central controller (0 models a free
    oracle, the usual baseline).
    """

    def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
        return EpochSchedule(greedy_physical(links, model), overhead_seconds)

    return schedule


def rate_aware_scheduler(
    model: PhysicalInterferenceModel,
    table: RateTable,
) -> EpochSchedulerFn:
    """GreedyRate re-run on every epoch's backlog snapshot.

    The multi-rate analogue of :func:`centralized_scheduler`: packs each
    slot to maximize total packets per slot under ``table`` instead of
    membership count (:func:`repro.scheduling.greedy_rate.greedy_rate`),
    and sizes the schedule so every link's *packet capacity* — not its
    membership count — covers its demand.  Pair it with
    ``EpochConfig(rate_table=table)`` so serving grants the same tiers the
    packer planned for.
    """

    def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
        return EpochSchedule(greedy_rate(links, model, table))

    return schedule


def distributed_scheduler(
    network: Network,
    protocol: Callable[..., object],
    config: ProtocolConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> EpochSchedulerFn:
    """A distributed protocol (``fdd_on_network`` / ``pdd_on_network`` /
    ``afdd_on_network``) re-run per epoch, with its execution time priced
    from the step tally it consumed.

    The protocol's schedule *is* the served schedule, and its measured air
    time becomes the epoch's overhead — the closed-loop cost of computing
    schedules distributedly instead of by a free centralized oracle.
    """
    cfg = config or ProtocolConfig()
    price = TimingModel(scream_bytes=cfg.smbytes)
    root = freeze_root(seed)  # frozen so each epoch's rng is reproducible

    def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
        result = protocol(network, links, cfg, rng=spawn(root, "epoch", epoch))
        return EpochSchedule(result.schedule, price.execution_time(result.tally))

    return schedule
