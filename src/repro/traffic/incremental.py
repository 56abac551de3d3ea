"""Incremental epoch rescheduling: schedule caching, drift metrics, patching.

The paper's economy argument is that SCREAM makes rescheduling cheap enough
to re-run "whenever traffic demands change" — but the epoch loop of
:mod:`repro.traffic.epoch` re-runs the full scheduler every epoch even when
backlogs barely drift, so distributed protocols pay their TimingModel-priced
air time T times for near-identical demand vectors.  This module amortizes
that cost the way heavy-traffic schedulers on interfering routes amortize
recomputation (cf. arXiv:1106.1590, arXiv:1208.0902):

* :class:`ScheduleCache` wraps any
  :data:`~repro.traffic.epoch.EpochSchedulerFn`.  It snapshots the demand
  vector each time the wrapped scheduler runs, and on later epochs measures
  the *drift* of the new backlog snapshot from that baseline (normalized
  L1 distance, :func:`drift_l1`).  While drift stays under a configurable
  threshold the cached :class:`~repro.traffic.epoch.EpochSchedule` is
  reused at **zero protocol overhead** — no SCREAMs, no control air time.
* On a cache miss the ``patch`` policy first tries to *repair* the cached
  schedule in place: links whose backlog emptied are dropped from their
  slots (removal can only reduce interference, so feasibility is
  preserved), and newly backlogged links are greedily inserted into
  existing slots wherever the incremental SINR admission test
  (:class:`~repro.scheduling.feasibility.SlotArena`) still passes.  Only
  when some newly backlogged link fits no slot does the cache fall back to
  a full re-run of the wrapped scheduler (paying its overhead once).

Drift is intentionally measured against the snapshot the cached schedule
was *built for*, not the previous epoch's — slow cumulative drift trips the
threshold instead of being rebased away.  At packet granularity a Poisson
workload wiggles hard epoch to epoch (normalized L1 around 0.5–1.0 even at
stable rates) while the demand *pattern* the schedule encodes barely moves;
what determines whether reuse is *safe* is not the wiggle itself but the
cached schedule's **service headroom** — how many full cycles of it fit in
an epoch.  A schedule that cycles 4x per epoch over-serves every link and
shrugs off large drift; a schedule that barely fits must track demand
closely.  :class:`ScheduleCache` therefore scales its drift threshold by
the measured headroom (when told the epoch length), which engages caching
aggressively at light load and conservatively at the stability knee — the
measured behaviour that keeps the knee of a cached FDD where the
re-run-every-epoch knee sits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import phase
from repro.phy.interference import PhysicalInterferenceModel, SlotSinrMemo
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.links import LinkSet
from repro.scheduling.schedule import Schedule, Slot
from repro.traffic.epoch import EpochSchedule, EpochSchedulerFn
from repro.util.ranges import join, split_at

#: The *base* drift threshold (normalized L1), before headroom scaling:
#: :class:`ScheduleCache` reuses its schedule while :func:`drift_l1` stays
#: at or under it (0 would reuse only byte-identical snapshots).
#: Chosen from measured drift on the 8x8 grid: with the threshold scaled by
#: the cached schedule's cycles-per-epoch headroom, 0.35 reuses schedules
#: freely at light load (headroom 4-5x lifts it past the 0.8-1.1 Poisson
#: wiggle) yet recomputes near the knee (headroom ~1 keeps it strict).
DRIFT_THRESHOLD = 0.35


def drift_l1(current: np.ndarray, baseline: np.ndarray) -> float:
    """Normalized L1 distance: ``|current - baseline|_1 / max(|baseline|_1, 1)``.

    Measures the total packet mass that moved relative to the demand the
    cached schedule was built for.  0 means identical vectors; 1 means the
    change is as large as the baseline itself.
    """
    cur = np.asarray(current, dtype=np.int64)
    base = np.asarray(baseline, dtype=np.int64)
    return float(np.abs(cur - base).sum() / max(base.sum(), 1))


@dataclass(frozen=True)
class CacheDecision:
    """What the cache did for one scheduling request."""

    epoch: int
    drift: float  # measured drift vs the cached baseline (inf when no cache)
    hit: bool  # cached schedule reused verbatim, zero overhead
    patched: bool  # cached schedule repaired in place, zero overhead
    recomputed: bool  # wrapped scheduler re-run, its overhead charged


@dataclass
class CacheStats:
    """Cumulative cache accounting across an epoch-loop run."""

    requests: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)
    patches: int = field(default=0, init=False)
    recomputes: int = field(default=0, init=False)


def patch_schedule(
    cached: Schedule,
    links: LinkSet,
    model: PhysicalInterferenceModel,
    max_length: int | None = None,
    table=None,
    sinrs: SlotSinrMemo | None = None,
) -> Schedule | None:
    """Repair a cached schedule for a new demand vector, or ``None``.

    Without a ``table`` (the fixed-rate seed contract) the repaired
    schedule satisfies the new demand *exactly* — every link appears in
    exactly ``demand[k]`` slots, just as a fresh
    :func:`~repro.scheduling.greedy_physical.greedy_physical` run would
    allocate.  With a :class:`~repro.phy.radio.RateTable` the match is in
    **packets**: each membership is worth its slot's SINR-selected rate,
    and the repair guarantees every link's summed packet capacity covers
    its demand (over-grant bounded by one tier's worth of rounding — rates
    are integral).  Either way the edits are all feasibility-preserving:

    1. *Drop emptied and over-allocated memberships*: links whose demand
       fell lose memberships, latest slots first (removing a transmitter
       only lowers interference at every remaining receiver, so a feasible
       slot stays feasible); emptied links vanish entirely and slots left
       empty are deleted, shortening the cycle.  Under a ``table`` each
       kept membership retires demand at the *cached* slot's rate — a
       lower bound on its post-trim rate, since removals only raise SINR —
       so trimming never cuts below the new demand.
    2. *Insert under-allocated links*: newly backlogged links, and links
       whose demand grew past their cached capacity, are added greedily
       to the earliest slots where :meth:`SlotArena.admit_sinrs` says the
       slot — including its ACK traffic — stays SINR-feasible (at most one
       membership per slot, mirroring the greedy invariant), with new
       slots opened at the end for whatever the packed slots cannot
       absorb, exactly as the greedy algorithm itself overflows.  Each
       insertion retires the rate the slot actually grants the new member.
    3. *Top-up* (``table`` only): an insertion can demote *other* members'
       tiers, shrinking capacity pass 2 had already counted.  Capacity is
       re-read from the final member sets and any shortfall is covered by
       fresh slots only — a fresh slot cannot degrade anyone, and grants
       its link the full standalone rate, so one round closes every gap.
       Under the degenerate table every rate is 1, passes 1–2 reduce to
       the membership arithmetic above, and pass 3 finds nothing to do —
       patching is bit-identical to the fixed-rate path.

    Maintaining demand-matched capacity is what keeps reuse *stable*: a
    patch that only guaranteed one slot per new link would serve stale
    demand proportions epoch after epoch and quietly starve growing queues.

    Returns ``None`` — the caller falls back to a full re-run — when some
    link is infeasible even alone (not a communication edge), or when the
    patched schedule would exceed ``max_length`` slots: repeated patching
    degrades slot packing relative to a fresh run, and a cycle longer than
    the epoch's playable window could not even serve every link once.  The
    cached schedule is never mutated.

    Under a ``table`` every SINR is read through the memo ``sinrs`` (a
    fresh one when ``None``; :class:`ScheduleCache` passes the run's), and
    fresh-slot grants come from its standalone SINRs.

    Raises ``ValueError`` on a ``SparsePowerMatrix`` model: the sparse
    arena packs waves of fresh links only (DESIGN.md §3).
    """
    if getattr(model.power, "is_sparse_power", False):
        raise ValueError("patch_schedule needs a dense power matrix")
    if table is not None and sinrs is None:
        sinrs = SlotSinrMemo(model, links.heads, links.tails)
    if cached.link_set.n_links != links.n_links:
        raise ValueError(
            f"cannot patch a schedule for {cached.link_set.n_links} links "
            f"onto a {links.n_links}-link set; the link universe must be fixed"
        )
    demand = np.asarray(links.demand, dtype=np.int64)
    heads, tails = links.heads, links.tails
    alone = None if table is None else table.grant(sinrs.alone)

    def grants(worst: np.ndarray) -> np.ndarray:
        """Packets per slot at each ``min(data, ACK)`` SINR."""
        if table is None:
            return np.ones(worst.size, dtype=np.int64)
        return table.grant(worst)

    def rates(members: np.ndarray, ends: list[int]) -> np.ndarray:
        """:func:`grants` of every membership of the flat round ``members``."""
        if table is None:
            return np.ones(members.size, dtype=np.int64)
        return grants(sinrs(members, ends))

    # 1. Keep memberships until each link's demand is covered, earliest
    #    slots first (greedy packed the earliest slots densest; trimming
    #    from the tail preserves that structure).  Each membership is worth
    #    its *cached* slot's rate — and every rate is >= 1, so a link keeps
    #    the prefix of its slot-ordered memberships whose exclusive running
    #    value is still short of its demand: one stable sort and a
    #    segmented cumsum.  The survivors seed the arena in one call —
    #    untested, in cached order, so every interference sum accumulates
    #    as it did when the slot was built.
    member, ends = join([slot.links for slot in cached.slots])
    value = rates(member, ends)
    by_link = np.argsort(member, kind="stable")
    before = np.cumsum(value[by_link]) - value[by_link]
    first = np.diff(member[by_link], prepend=-1) != 0
    before -= before[first][np.cumsum(first) - 1]
    keep = np.empty(member.size, dtype=bool)
    keep[by_link] = before < demand[member[by_link]]
    allocated = np.bincount(member[keep], value[keep], links.n_links).astype(np.int64)
    of_slot = np.repeat(np.arange(len(ends)), np.diff([0, *ends]))
    held = np.unique(of_slot[keep], return_counts=True)[1]  # per surviving slot
    kept = member[keep]
    arena = SlotArena(model)
    arena.seed(np.repeat(np.arange(held.size), held), heads[kept], tails[kept])
    slots = [Slot(members) for members in split_at(kept.tolist(), np.cumsum(held).tolist())]

    fits_alone = feasible_alone(model, heads, tails)

    def cover_with_fresh_slots(k: int, remaining: int) -> bool:
        """Open the ``⌈remaining / grant⌉`` singleton slots ``k`` needs;
        False when the patch must be abandoned."""
        if remaining <= 0:
            return True
        if not fits_alone[k]:
            return False  # infeasible even alone: not a communication edge
        # Alone in its slot the link is granted its standalone rate.
        grant = 1 if table is None else int(alone[k])
        fresh = -(-remaining // grant)
        if max_length is not None and len(slots) + fresh > max_length:
            return False  # packing degraded past the playable window
        arena.seed(len(slots) + np.arange(fresh), [heads[k]] * fresh, [tails[k]] * fresh)
        slots.extend(Slot([k]) for _ in range(fresh))
        return True

    # 2. Greedily insert each link's remaining demand (largest deficit
    #    first: the hardest-to-serve links get first pick of the room),
    #    opening fresh slots for the overflow.
    deficit = demand - allocated
    for k in sorted(np.flatnonzero(deficit > 0).tolist(), key=lambda k: -int(deficit[k])):
        sender, receiver = int(heads[k]), int(tails[k])
        remaining = int(deficit[k])
        # One admission pass, before any insertion (slots are independent),
        # gives every verdict and the SINR each slot would grant ``k``, which
        # takes admitting slots until their grants (each >= 1) cover its
        # deficit.  A slot already holding ``k`` shares its endpoints.
        admits, worst = arena.admit_sinrs(sender, receiver)
        admits = np.flatnonzero(admits)[:remaining]
        granted = np.cumsum(grants(worst[admits]))
        into = admits[: np.searchsorted(granted, remaining) + 1].tolist()
        for j in into:
            slots[j].add(k)
        if into:
            remaining -= int(granted[len(into) - 1])
            arena.add(into, sender, receiver)
        if not cover_with_fresh_slots(k, remaining):
            return None

    # 3. Rate top-up: pass 2's insertions may have demoted tiers of
    #    memberships whose packets were already counted.  Re-read capacity
    #    from the final member sets; cover any shortfall with fresh slots
    #    (which degrade nothing), so a single round suffices.
    if table is not None:
        members, ends = join([slot.links for slot in slots])
        capacity = np.bincount(members, rates(members, ends), links.n_links)
        shortfall = demand - capacity.astype(np.int64)
        for k in sorted(
            np.flatnonzero(shortfall > 0).tolist(), key=lambda k: -int(shortfall[k])
        ):
            if not cover_with_fresh_slots(k, int(shortfall[k])):
                return None

    if max_length is not None and len(slots) > max_length:
        return None
    return Schedule(link_set=links, slots=slots)


class ScheduleCache:
    """An :data:`~repro.traffic.epoch.EpochSchedulerFn` that amortizes the
    wrapped scheduler's protocol overhead across low-drift epochs.

    Parameters
    ----------
    base:
        The scheduler to wrap (any epoch scheduler adapter).
    policy:
        ``"drift-threshold"`` or ``"patch"`` (see
        :data:`~repro.traffic.epoch.RESCHEDULE_POLICIES`; ``"always"`` is
        the epoch loop *not* using a cache).
    model:
        Physical-interference model, required by the ``patch`` policy for
        its SINR feasibility checks; a dense one, since
        :func:`patch_schedule` refuses a ``SparsePowerMatrix``.
    rate_table:
        Optional :class:`~repro.phy.radio.RateTable`: patches then match
        demand in packet capacity instead of membership count (see
        :func:`patch_schedule`).  Pass the same table the epoch loop
        serves with (``EpochConfig.rate_table``) or patched schedules will
        be sized for the wrong contract.
    epoch_slots:
        When given, two safeguards engage.  First, :data:`DRIFT_THRESHOLD` is
        scaled by the cached schedule's *service headroom* — the number of
        full cycles that fit in an epoch, ``epoch_slots / length`` (never
        scaled below the base threshold): a schedule cycling 4x per epoch
        over-serves every link and can safely shrug off the large
        normalized drift that pure Poisson wiggle produces at light load,
        while a schedule that barely fits must track demand closely.
        Second, a patch that would grow past ``epoch_slots`` (a cycle too
        long to even serve every link once) falls back to a full re-run.

    Cache hits and successful patches return schedules with
    ``overhead_seconds == 0.0``: reuse costs no *protocol* air time.  A
    patch is a controller computation whose **distribution** is what costs
    air — unpriced by default (the historical idealization of DESIGN.md
    §7), priced per delta message along the routing forest once
    :meth:`bind_control` attaches a control ledger (DESIGN.md §10).  The
    last :class:`CacheDecision` and cumulative :class:`CacheStats` are
    exposed for per-epoch accounting.
    """

    def __init__(
        self,
        base: EpochSchedulerFn,
        policy: str = "drift-threshold",
        model: PhysicalInterferenceModel | None = None,
        epoch_slots: int | None = None,
        rate_table=None,
    ):
        if policy not in ("drift-threshold", "patch"):
            raise ValueError(
                f"policy must be 'drift-threshold' or 'patch', got {policy!r}"
            )
        if policy == "patch" and model is None:
            raise ValueError("the 'patch' policy needs a PhysicalInterferenceModel")
        if policy == "patch" and getattr(model.power, "is_sparse_power", False):
            raise ValueError("the 'patch' policy needs a dense power matrix")
        if epoch_slots is not None and epoch_slots <= 0:
            raise ValueError("epoch_slots must be positive when given")
        self._base = base
        self.policy = policy
        self._model = model
        self._epoch_slots = epoch_slots
        self._rate_table = rate_table
        # The patches' SINR memo (see bind_sinrs).
        self._sinrs: SlotSinrMemo | None = None
        self._cached: EpochSchedule | None = None
        self._baseline: np.ndarray | None = None
        self._ledger = None
        self._depths: np.ndarray | None = None
        self._obs = None
        self.last_decision: CacheDecision | None = None
        self.stats = CacheStats()

    def bind_control(self, ledger, depths: np.ndarray | None) -> None:
        """Price patch distribution into ``ledger`` (repro.core.controlplane).

        Once bound, every successful patch books one ``patch`` message per
        membership edit — the repaired allocation differs from the cached
        one by exactly the L1 distance between the two demand vectors —
        multiplied by the link's hop ``depths`` from its gateway (the
        controller's fix must relay down the routing forest to reach the
        link's head; see :func:`~repro.core.controlplane.forest_depths`).
        Cache hits book nothing: "no message" *is* the keep-current-schedule
        signal, and full recomputes already pay the wrapped scheduler's own
        protocol air.

        :func:`~repro.traffic.epoch.run_epochs` (re)binds this on every run
        from its ``control=`` model — ``bind_control(None, None)`` on
        unpriced runs, so a cache reused across runs never keeps charging a
        previous run's ledger.
        """
        self._ledger = ledger
        self._depths = depths

    def bind_obs(self, obs) -> None:
        """Attach an observability handle (repro.obs); ``None`` unbinds.

        Once bound, every request books ``cache.requests`` plus one of
        ``cache.hits`` / ``cache.patches`` / ``cache.recomputes`` under
        ``engine="epoch"``, and patch repairs run inside an
        ``incremental.patch`` span.  Observe-only — the cache's decisions
        never depend on the handle — and rebound on every run, like
        :meth:`bind_control`.
        """
        self._obs = obs

    def effective_threshold(self) -> float:
        """The drift threshold after headroom scaling (see ``epoch_slots``)."""
        if (
            self._epoch_slots is None
            or self._cached is None
            or self._cached.schedule.length == 0
        ):
            return DRIFT_THRESHOLD
        headroom = self._epoch_slots / self._cached.schedule.length
        return DRIFT_THRESHOLD * max(1.0, headroom)

    def bind_sinrs(self, memo: SlotSinrMemo | None) -> None:
        """Read patch SINRs through ``memo``, the run's, if it judges slots
        under this cache's model, else (``None`` too) through the cache's
        own; :func:`~repro.traffic.epoch.run_epochs` rebinds it on every
        run."""
        shared = memo is not None and memo.model is self._model
        self._sinrs = memo if shared else None

    def _patch(self, links: LinkSet) -> Schedule | None:
        """:func:`patch_schedule` of the cached schedule, every SINR read
        through the memo."""
        table = self._rate_table
        if table is not None and self._sinrs is None:
            self._sinrs = SlotSinrMemo(self._model, links.heads, links.tails)
        return patch_schedule(
            self._cached.schedule, links, self._model, self._epoch_slots, table, self._sinrs
        )

    def _book(self, outcome: str) -> None:
        if self._obs is not None:
            self._obs.counter("cache.requests", 1, engine="epoch")
            self._obs.counter(f"cache.{outcome}", 1, engine="epoch")

    def __call__(self, links: LinkSet, epoch: int) -> EpochSchedule:
        snapshot = np.array(links.demand, dtype=np.int64, copy=True)
        self.stats.requests += 1

        if self._cached is not None and self._baseline is not None:
            if self._baseline.shape != snapshot.shape:
                raise ValueError(
                    "demand snapshot shape changed between epochs; "
                    "ScheduleCache requires a fixed link universe"
                )
            drift = drift_l1(snapshot, self._baseline)
            if drift <= self.effective_threshold():
                self.stats.hits += 1
                self._book("hits")
                self.last_decision = CacheDecision(
                    epoch=epoch, drift=drift, hit=True, patched=False, recomputed=False
                )
                return EpochSchedule(self._cached.schedule, overhead_seconds=0.0)
            if self.policy == "patch":
                with phase(self._obs, "incremental.patch", epoch=epoch, engine="epoch"):
                    patched = self._patch(links)
                if patched is not None:
                    planned = EpochSchedule(patched, overhead_seconds=0.0)
                    if self._ledger is not None:
                        # One patch-delta message per membership edit (the
                        # exact-allocation repair adds/removes |new - old|
                        # memberships), each relayed depth hops down the
                        # forest from the gateway controller.
                        deltas = np.abs(snapshot - self._baseline)
                        messages = int((deltas * self._depths).sum())
                        self._ledger.charge(epoch, "incremental", "patch", messages)
                    # The patched schedule becomes the new cache entry, with
                    # the current snapshot as its baseline: it was repaired
                    # *for* this demand vector.
                    self._cached = planned
                    self._baseline = snapshot
                    self.stats.patches += 1
                    self._book("patches")
                    self.last_decision = CacheDecision(
                        epoch=epoch,
                        drift=drift,
                        hit=False,
                        patched=True,
                        recomputed=False,
                    )
                    return planned
        else:
            drift = float("inf")

        planned = self._base(links, epoch)
        self._cached = planned
        self._baseline = snapshot
        self.stats.recomputes += 1
        self._book("recomputes")
        self.last_decision = CacheDecision(
            epoch=epoch, drift=drift, hit=False, patched=False, recomputed=True
        )
        return planned
