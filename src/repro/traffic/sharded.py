"""Sharded multi-region epoch engine with cross-shard reconciliation.

The monolithic loop of :mod:`repro.traffic.epoch` re-runs one scheduler over
the entire deployment every epoch.  That is faithful to the paper's 64-node
region but neither fast nor representative of the federated many-region
meshes SCREAM is pitched for: greedy scheduling cost grows superlinearly in
the link count (each (link, slot) feasibility test pays for the slot's
occupancy), and a real multi-region backbone computes its schedules *per
region*, not globally.  This module partitions the deployment into spatial
shards and runs the per-epoch scheduler on each shard, reconciling what the
decomposition idealizes away:

* **Partition** — :func:`partition_links` tiles the deployment region
  (:class:`~repro.topology.regions.GridTiling`) and assigns every link to
  the tile containing its head node, so each shard is a contiguous
  sub-region with its own link set and its own scheduler instance.
* **Guard margin** — links within ``interference_radius_m`` of an internal
  tile edge are *boundary links*.  Their endpoints carry a far-field
  interference budget: the shard's feasibility oracle
  (:meth:`~repro.phy.interference.PhysicalInterferenceModel.with_budget`)
  inflates the noise floor at those nodes by ``guard_factor x N``, so
  boundary links are scheduled with SINR headroom reserved for
  transmissions the shard cannot see — the budget-the-far-field
  decomposition of Halldórsson & Mitra (arXiv:1104.5200) rather than a
  global recomputation.
* **Reconciliation** — per-shard schedules are superposed slot-by-slot
  into one global round (shards shorter than the round idle in its tail).
  The combined round then goes through ``greedy_physical``'s exact
  verify-and-repair pass (:func:`~repro.scheduling.greedy_physical.repair`):
  each slot is checked under the *exact* global model, the lowest-margin
  failing links are peeled out and re-packed greedily, in ascending link
  order, into overflow slots appended to the round, and those are
  verified in turn.  With an adequate guard margin
  the pass finds little to do; with ``guard_factor=0`` it is the only
  thing standing between the shards and physically infeasible slots.

Every region re-runs its scheduler on its own demand each epoch and serves
at fixed rate: the engine runs the ``"always"`` policy with no rate table
and rejects any other configuration before the first epoch.  The
degenerate 1-shard partition has no internal edges, hence no boundary
links, a zero budget, and nothing to reconcile — :func:`run_epochs_sharded`
then reproduces :func:`~repro.traffic.epoch.run_epochs` epoch-for-epoch
(the differential harness in ``tests/integration/test_sharded_engine.py``
locks this down).

The regions of a federated mesh compute concurrently in the field; the
simulation schedules them in the caller's thread and models that
concurrency as the per-epoch critical path (the maximum of the shards'
scheduling CPU).  A shard whose scheduler is one dense first-fit pack in
closed form (a :class:`ShardLane`) is a lane of one lockstep
``first_fit_dense`` shared by all such shards, its share of that call's
CPU its work's; the others run one after another.  Each shard's scheduler
draws from its own RNG substream and the superposition is assembled in
shard order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.controlplane import ControlLedger, ControlPlaneModel
from repro.obs import Obs, phase
from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import first_fit_dense, repair
from repro.scheduling.links import LinkSet
from repro.scheduling.orderings import order_by_id
from repro.scheduling.schedule import Schedule, Slot
from repro.topology.regions import GridTiling
from repro.traffic.epoch import (
    EpochConfig,
    EpochRecord,
    EpochSchedule,
    EpochSchedulerFn,
    ScheduledRound,
    TrafficTrace,
    centralized_scheduler,
    epoch_loop,
    schedule_truth,
)
from repro.traffic.generators import TrafficGenerator
from repro.traffic.queues import LinkQueues
from repro.util.ranges import join

#: Default guard margin: boundary nodes budget one extra noise floor of
#: far-field interference (effective noise ``2N``, i.e. +3 dB).  Measured on
#: the 16x16 grid this absorbs almost all cross-shard violations while
#: costing boundary links little schedulable headroom.
DEFAULT_GUARD_FACTOR = 1.0


@dataclass(frozen=True)
class LinkShard:
    """One spatial shard: a tile's links plus their guard-margin budget.

    Attributes
    ----------
    index:
        Dense shard index (0..n_shards-1) in tile order.
    tile:
        The tile index in the plan's :class:`~repro.topology.regions.GridTiling`.
    link_indices:
        Ascending global link indices (into the plan's full link set).
    links:
        The shard's own :class:`~repro.scheduling.links.LinkSet` (the subset
        at ``link_indices``, demands included).
    boundary:
        Boolean mask over the shard's *local* links: within the interference
        radius of an internal tile edge, hence exposed to far-field
        interference from neighbouring shards.
    budget_mw:
        Per-node far-field budget vector for this shard's feasibility
        oracle, or ``None`` when the shard has no boundary links (or the
        guard factor is 0).
    n_shards:
        Total shard count of the plan this shard belongs to (1 marks the
        degenerate monolithic-equivalent partition; scheduler factories use
        it to keep single-shard RNG stream derivations identical to the
        monolithic adapters).
    """

    index: int
    tile: int
    link_indices: np.ndarray
    links: LinkSet
    boundary: np.ndarray
    budget_mw: np.ndarray | None
    n_shards: int = 1

    @property
    def n_links(self) -> int:
        return self.links.n_links


@dataclass(frozen=True)
class ShardPlan:
    """A partition of one link set into spatial shards."""

    links: LinkSet
    tiling: GridTiling
    shards: tuple[LinkShard, ...]
    interference_radius_m: float
    guard_factor: float

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def boundary_mask(self) -> np.ndarray:
        """Global boolean mask of boundary links across all shards."""
        mask = np.zeros(self.links.n_links, dtype=bool)
        for shard in self.shards:
            mask[shard.link_indices[shard.boundary]] = True
        return mask

    def summary(self) -> str:
        sizes = ", ".join(str(s.n_links) for s in self.shards)
        return (
            f"ShardPlan(shards={self.n_shards} [{sizes}] links, "
            f"boundary={int(self.boundary_mask().sum())}/{self.links.n_links}, "
            f"radius={self.interference_radius_m:g} m, "
            f"guard={self.guard_factor:g}x noise)"
        )


#: Share of a link's standalone SINR headroom a guard budget may claim; the
#: rest is left for the in-shard interference the scheduler itself will pack
#: around the link.
BUDGET_HEADROOM_FRACTION = 0.5


def affordable_budget(links: LinkSet, model: PhysicalInterferenceModel) -> np.ndarray:
    """Largest far-field budget (mW) each node can carry without breaking a link.

    A guard margin must never render a communication edge unschedulable:
    link ``u -> v`` stays feasible alone iff
    ``P[u, v] >= beta * (N + budget[v])`` (data) and symmetrically for the
    ACK at ``u``.  The affordable budget at node ``x`` is therefore the
    minimum, over every link that *receives* at ``x`` (data at tails, ACKs
    at heads), of ``P_signal / beta - N`` — scaled by
    :data:`BUDGET_HEADROOM_FRACTION`.  Negative headroom (a link below
    threshold even without budget) clamps to 0.
    """
    power = model.power
    noise = model.radio.noise_mw
    beta = model.radio.beta
    afford = np.full(model.n_nodes, np.inf)
    np.minimum.at(
        afford, links.tails, power[links.heads, links.tails] / beta - noise
    )
    np.minimum.at(
        afford, links.heads, power[links.tails, links.heads] / beta - noise
    )
    afford[~np.isfinite(afford)] = 0.0  # nodes no link receives at
    return np.clip(BUDGET_HEADROOM_FRACTION * afford, 0.0, None)


def partition_links(
    links: LinkSet,
    positions: np.ndarray,
    tiling: GridTiling,
    model: PhysicalInterferenceModel,
    interference_radius_m: float,
    guard_factor: float = DEFAULT_GUARD_FACTOR,
) -> ShardPlan:
    """Partition a link set into spatial shards along a region tiling.

    Every link lands in exactly one shard — the tile containing its *head*
    (transmitting) node — so the shard link sets are disjoint and their
    union is ``links``.  A link is a *boundary* link when either endpoint
    lies within ``interference_radius_m`` of an internal tile edge; the
    test uses the endpoint-to-edge distance, so it is symmetric in the
    link's direction and two links mirrored across an edge are classified
    identically.  Boundary endpoints are charged ``guard_factor *
    noise_mw`` of far-field budget in their shard's oracle, clamped to the
    node's :func:`affordable_budget` so the margin can never push a link
    below its standalone SINR threshold (marginal links keep a reduced
    guard and lean on the reconciliation pass instead).

    Tiles that contain no links produce no shard (a 4-tile plan over a
    3-corner deployment yields 3 shards).
    """
    if interference_radius_m < 0:
        raise ValueError("interference_radius_m must be non-negative")
    if guard_factor < 0:
        raise ValueError("guard_factor must be non-negative")
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {pos.shape}")

    tile_of_node = tiling.tile_of(pos)
    edge_dist = tiling.internal_edge_distance(pos)
    link_tile = tile_of_node[links.heads]
    near_edge = edge_dist <= interference_radius_m
    node_budget: np.ndarray | None = None
    if guard_factor > 0:
        node_budget = np.minimum(
            guard_factor * model.radio.noise_mw, affordable_budget(links, model)
        )

    tiles = np.unique(link_tile)
    shards: list[LinkShard] = []
    for tile in tiles:
        idx = np.flatnonzero(link_tile == tile)
        subset = links.subset(idx)
        boundary = near_edge[subset.heads] | near_edge[subset.tails]
        budget: np.ndarray | None = None
        if node_budget is not None and boundary.any():
            budget = np.zeros(pos.shape[0], dtype=float)
            endpoints = np.concatenate(
                [subset.heads[boundary], subset.tails[boundary]]
            )
            budget[endpoints] = node_budget[endpoints]
        shards.append(
            LinkShard(
                index=len(shards),
                tile=int(tile),
                link_indices=idx,
                links=subset,
                boundary=boundary,
                budget_mw=budget,
                n_shards=len(tiles),
            )
        )
    return ShardPlan(
        links=links,
        tiling=tiling,
        shards=tuple(shards),
        interference_radius_m=float(interference_radius_m),
        guard_factor=float(guard_factor),
    )


def plan_for_network(
    links: LinkSet,
    network,
    n_shards: int,
    interference_radius_m: float,
    guard_factor: float = DEFAULT_GUARD_FACTOR,
) -> ShardPlan:
    """Convenience: the most-square ``n_shards``-tile plan for a network."""
    tiling = GridTiling.for_tiles(network.region, n_shards)
    return partition_links(
        links,
        network.positions,
        tiling,
        model=network.model,
        interference_radius_m=interference_radius_m,
        guard_factor=guard_factor,
    )


#: A per-shard scheduler builder: receives the shard and its budgeted
#: feasibility oracle, returns the shard's epoch scheduler.  Builders that
#: need randomness must derive it from the shard index (e.g.
#: ``spawn(seed, "shard", shard.index)``) so a shard's stream does not
#: depend on its siblings.
ShardSchedulerFactory = Callable[
    [LinkShard, PhysicalInterferenceModel], EpochSchedulerFn
]


@dataclass(frozen=True)
class ShardLane:
    """A shard scheduler's closed form — one dense first-fit pack of
    ``model``, its dense model cut to the shard's nodes, counting FDD's
    vetoes or not — which the engine packs as a lane of one lockstep
    ``first_fit_dense``.  ``open(links, epoch)`` returns the epoch's pack
    (endpoints in ``model``'s numbering, demands) and the ``finish(pack)``
    that makes the lane's ``first_fit_dense`` result the epoch's schedule,
    each ``None`` where the closed form does not apply and the engine calls
    the scheduler."""

    model: PhysicalInterferenceModel
    vetoes: bool
    open: Callable


def sharded_centralized_factory() -> ShardSchedulerFactory:
    """Per-shard GreedyPhysical on the shard's budgeted oracle; on a dense
    model, each shard's pack is a lane of the engine's lockstep pack."""

    def factory(
        shard: LinkShard, shard_model: PhysicalInterferenceModel
    ) -> EpochSchedulerFn:
        schedule = centralized_scheduler(shard_model)
        if getattr(shard_model.power, "is_sparse_power", False):
            return schedule
        nodes = np.unique(np.concatenate([shard.links.heads, shard.links.tails]))
        budget = shard_model.budget_mw

        def open_lane(links: LinkSet, epoch: int):
            # greedy_physical's dense pack; a link that cannot decode alone
            # is the scheduler's to refuse.
            order = order_by_id(links, shard_model)
            demanded = order[links.demand[order] > 0]
            heads, tails = links.heads[demanded], links.tails[demanded]
            if not feasible_alone(shard_model, heads, tails).all():
                return None

            def finish(pack) -> EpochSchedule:
                ids = demanded.tolist()
                packed = [Slot(links=[ids[p] for p in members]) for members in pack[0]]
                return EpochSchedule(Schedule(link_set=links, slots=packed))

            ends = np.searchsorted(nodes, heads), np.searchsorted(nodes, tails)
            return (*ends, links.demand[demanded], finish)

        cut = replace(
            shard_model,
            power=shard_model.power[np.ix_(nodes, nodes)],
            budget_mw=None if budget is None else budget[nodes],
        )
        schedule.lane = ShardLane(cut, False, open_lane)
        return schedule

    return factory


def sharded_distributed_factory(
    network,
    protocol: Callable[..., object],
    config=None,
    seed: int | np.random.Generator | None = None,
) -> ShardSchedulerFactory:
    """A distributed protocol (``fdd_on_network`` et al.) per region.

    The big-mesh configuration this module exists for: every shard runs its
    *own* protocol instance over its *own radio substrate* — a sub-Network
    restricted to the shard's nodes, with the shard's guard-margin budget
    installed in the handshake oracle (the ``model`` override of the
    ``*_on_network`` wrappers) — and its air time priced by the shared
    :class:`~repro.core.timing.TimingModel`.  This is what a federated
    deployment does: SCREAMs, elections, and handshakes stay regional, so
    a region's protocol cost scales with the region, not the backbone, and
    regional elections need only enough ID bits for the region.  Because
    the regions compute concurrently in the field, the epoch loop charges
    the *maximum* shard overhead — sharding cuts both the wall-clock of
    the simulation and the protocol air time the schedule pays for.  What
    the regional substrate idealizes away — control-plane interference
    *between* simultaneously computing regions — is recorded in DESIGN.md
    §8; the data-plane consequences are what the reconciliation pass
    catches.

    Shard link/node indices are remapped to the dense local substrate in
    ascending global order, so the protocol's decreasing-ID edge ordering
    agrees with the global ordering shard-locally.  Each shard draws from
    its own RNG substream (``("shard", index)``); the degenerate 1-shard
    plan skips the remap entirely and reuses
    :func:`~repro.traffic.epoch.distributed_scheduler`'s exact
    ``("epoch", e)`` derivation on the full network, keeping the
    equivalence harness honest.
    """
    from repro.core.afdd import AFDD_REFRESH_SCREAMS, afdd_on_network
    from repro.core.config import ProtocolConfig
    from repro.core.fast_runtime import FastRuntime
    from repro.core.fdd import fdd_on_network
    from repro.core.protocol import theorem4_order, theorem4_result
    from repro.core.timing import TimingModel
    from repro.util.rng import freeze_root, spawn

    # The protocols whose fault-free runs take Theorem 4's closed form, and
    # their selection cost (``run_by_theorem4``'s ``refresh_screams``).
    closed_forms = {fdd_on_network: None, afdd_on_network: AFDD_REFRESH_SCREAMS}
    cfg = config or ProtocolConfig()
    price = TimingModel(scream_bytes=cfg.smbytes)
    root = freeze_root(seed)

    def factory(
        shard: LinkShard, shard_model: PhysicalInterferenceModel
    ) -> EpochSchedulerFn:
        if shard.n_shards == 1:

            def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
                result = protocol(
                    network,
                    links,
                    cfg,
                    rng=spawn(root, "epoch", epoch),
                    model=shard_model,
                )
                return EpochSchedule(
                    result.schedule, price.execution_time(result.tally)
                )

            return schedule

        # Regional substrate: the shard's nodes only, in ascending global
        # order (np.unique), so local index order == global index order.
        nodes = np.unique(
            np.concatenate([shard.links.heads, shard.links.tails])
        )
        local_of = np.full(network.n_nodes, -1, dtype=np.intp)
        local_of[nodes] = np.arange(nodes.size, dtype=np.intp)
        subnet = replace(
            network,
            positions=network.positions[nodes],
            tx_power_mw=network.tx_power_mw[nodes],
        )
        # Regional elections iterate only over the bits the region's ID
        # space needs (a 144-node region elects in 8 bits where a 576-node
        # backbone needs 10), and regional SCREAMs are sized to the
        # region's own interference diameter — the paper's K >= ID(GS)
        # rule applied to the region instead of the backbone.  That is
        # usually smaller than the backbone's K, but a tile whose
        # sensitivity subgraph only connects via long detours can need
        # *more*: correctness wins over air time either way.  A region
        # whose sub-GS is not strongly connected has no sufficient K at
        # all (the protocol is genuinely degraded there); the backbone K
        # is kept as the best available.
        local_bits = max(1, int(nodes.size - 1).bit_length())
        local_id = subnet.interference_diameter()
        local_k = cfg.k
        if math.isfinite(local_id):
            local_k = max(1, int(math.ceil(local_id)))
        shard_cfg = cfg
        if local_bits < cfg.id_bits or local_k != cfg.k:
            shard_cfg = replace(
                cfg, id_bits=min(local_bits, cfg.id_bits), k=local_k
            )
        sub_model = subnet.model
        if shard.budget_mw is not None:
            sub_model = sub_model.with_budget(shard.budget_mw[nodes])
        local_heads = local_of[shard.links.heads]
        local_tails = local_of[shard.links.tails]

        def local(links: LinkSet) -> LinkSet:
            return LinkSet(
                heads=local_heads,
                tails=local_tails,
                demand=links.demand,
                ids=local_heads.astype(np.int64),
            )

        def schedule(links: LinkSet, epoch: int) -> EpochSchedule:
            result = protocol(
                subnet,
                local(links),
                shard_cfg,
                rng=spawn(root, "shard", shard.index, "epoch", epoch),
                model=sub_model,
            )
            # Slots reference local link indices == the shard's own link
            # order, which is exactly what the superposition expects.
            return EpochSchedule(result.schedule, price.execution_time(result.tally))

        if protocol not in closed_forms:
            return schedule

        def open_lane(links: LinkSet, epoch: int):
            # run_by_theorem4 on the substrate the protocol would build,
            # its pack left to the engine.
            links = local(links)
            runtime = FastRuntime.for_network(subnet, shard_cfg, model=sub_model)
            demanded = theorem4_order(links, runtime, shard_cfg)
            if demanded is None:
                return None

            def finish(pack) -> EpochSchedule | None:
                refresh = closed_forms[protocol]
                result = theorem4_result(links, runtime, shard_cfg, refresh, demanded, pack)
                if result is None:
                    return None
                return EpochSchedule(result.schedule, price.execution_time(result.tally))

            ends = links.heads[demanded], links.tails[demanded]
            return (*ends, links.demand[demanded], finish)

        schedule.lane = ShardLane(sub_model, True, open_lane)
        return schedule

    return factory


def _block_diagonal(models: list[PhysicalInterferenceModel]):
    """One dense model (``models``' radio) whose power is the block-diagonal
    of theirs, each block with its model's budget — an exact ``0.0`` where
    a model has none, which moves no verdict — and each block's first node."""
    ends = np.cumsum([0] + [m.n_nodes for m in models]).tolist()
    power = np.zeros((ends[-1], ends[-1]))
    budget = np.zeros(ends[-1])
    for m, lo, hi in zip(models, ends, ends[1:]):
        power[lo:hi, lo:hi] = m.power
        if m.budget_mw is not None:
            budget[lo:hi] = m.budget_mw
    budget = budget if budget.any() else None
    return PhysicalInterferenceModel(power, models[0].radio, budget), ends[:-1]


class ShardScheduleError(RuntimeError):
    """One shard's scheduler raised mid-epoch.

    Annotates the underlying failure with *which* shard and epoch so a
    multi-shard run doesn't abort anonymously.  :func:`run_epochs_sharded`
    raises it before any serving mutates the epoch's served/delivered
    accounting, and the epoch loop marks the run's queues unusable
    (arrivals were already booked, so the half-mutated state must not be
    read as a trace).
    """

    def __init__(self, shard_index: int, epoch: int, cause: BaseException):
        super().__init__(
            f"shard {shard_index} scheduler failed at epoch {epoch}: {cause!r}"
        )
        self.shard_index = shard_index
        self.epoch = epoch


def run_epochs_sharded(
    plan: ShardPlan,
    generator: TrafficGenerator,
    scheduler_factory: ShardSchedulerFactory,
    model: PhysicalInterferenceModel,
    config: EpochConfig | None = None,
    max_workers: int = 1,
    on_epoch: Callable[[EpochRecord, LinkQueues], None] | None = None,
    control: ControlPlaneModel | None = None,
    obs: Obs | None = None,
    executor: str = "thread",
) -> TrafficTrace:
    """Run the traffic loop with per-shard scheduling; return its trace.

    The loop is :func:`~repro.traffic.epoch.run_epochs`'s — same arrivals,
    pricing, serving, records, and the same ``on_epoch`` / ``control`` /
    ``obs`` contracts, documented there — with a different scheduling stage:
    the capped backlog snapshot is split along the plan; every shard with
    demand runs its scheduler on its budgeted oracle, one after another in
    the caller's thread; the shard schedules are superposed slot-by-slot
    and reconciled by the exact repair pass; the trace carries the ``plan``.

    Every epoch re-runs each demanded shard's scheduler and serves one
    packet per membership: ``config.reschedule_policy`` must be
    ``"always"`` and ``config.rate_table`` ``None``, else ``ValueError``
    before any arrival is booked.  A factory that returns a scheduler with
    state of its own (a :class:`~repro.traffic.incremental.ScheduleCache`,
    say) is called like any other; its records carry no cache decisions.

    Shards whose schedulers carry a :class:`ShardLane` are packed
    together, as lanes of one lockstep ``first_fit_dense`` on an arena
    over the block-diagonal of their models (built once per run), and
    each lane's schedule is finished as its scheduler would; the others,
    and lanes whose closed form does not apply, call their scheduler.

    ``max_workers`` and ``executor`` change nothing.  They are still
    validated (``max_workers >= 1``; ``executor`` is ``"thread"`` or
    ``"process"``) for the callers that pass them, such as the perf
    ledger's ``sharded_24x24`` workload.  The regions' concurrency is
    modelled, not run: every ``sharded.schedule`` span (the lockstep call,
    labelled ``lanes``, or one shard's call) measures its thread CPU, the
    lockstep call's split over its lanes by their work; an epoch's compute
    is the sum and its critical path the maximum over shards (DESIGN.md
    §8), and ``scheduling_wall_seconds`` is the wall of the whole stage.

    *Overhead accounting*: shards compute in parallel in a federated
    deployment, so the epoch is charged the **maximum** of the shard
    overheads, not their sum (for one shard this is exactly the monolithic
    charge).

    What ``control`` prices here on top of the monolithic charges (retiring
    the free-central-post-pass idealization of DESIGN.md §8): on every
    multi-shard epoch with demand, each demanded boundary link books one
    ``report`` message (shards tell the reconciler what they scheduled near
    their edges) and every membership the pass serializes books one
    ``reconcile`` announcement.  The charges ride the epoch's overhead *on
    the critical path* — coordination air serializes even when the regional
    computations ran concurrently.

    A shard scheduler that raises aborts the run with
    :class:`ShardScheduleError` naming the shard and epoch.
    """
    cfg = config or EpochConfig()
    if cfg.reschedule_policy != "always" or cfg.rate_table is not None:
        raise ValueError(
            "run_epochs_sharded re-runs every shard each epoch at fixed rate: "
            "config.reschedule_policy must be 'always' and config.rate_table None"
        )
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    if executor not in ("thread", "process"):
        raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
    ledger = ControlLedger(control) if control is not None else None
    schedulers = [
        scheduler_factory(shard, model.with_budget(shard.budget_mw))
        for shard in plan.shards
    ]
    # The shards whose schedulers pack in closed form are lanes of one
    # arena, over the block-diagonal of their models built once per run.
    lanes = {
        shard.index: scheduler.lane
        for shard, scheduler in zip(plan.shards, schedulers)
        if getattr(scheduler, "lane", None) is not None
    }
    if lanes:
        arena_model, offsets = _block_diagonal([lane.model for lane in lanes.values()])
        offset = dict(zip(lanes, offsets))

    def pack_lanes(laned: list[int], demand: dict, epoch: int, planned: dict) -> dict:
        """The ``laned`` shards' schedules from one lockstep pack, into
        ``planned`` (``None`` where the closed form does not apply), and
        each packed lane's work: its candidate tests, each weighted by one
        plus the memberships it scans (all of the links' before it), a
        deterministic measure of its share of the call."""
        opened = {}
        for i in laned:
            try:
                opened[i] = lanes[i].open(demand[i], epoch)
            except Exception as exc:
                raise ShardScheduleError(i, epoch, exc) from exc
        packed = [i for i in laned if opened[i] is not None]
        if not packed:
            return {}
        results = first_fit_dense(
            SlotArena(arena_model),
            [opened[i][0] + offset[i] for i in packed],
            [opened[i][1] + offset[i] for i in packed],
            [opened[i][2] for i in packed],
            any(lanes[i].vetoes for i in packed),
        )
        for i, pack in zip(packed, results):
            try:
                planned[i] = opened[i][3](pack)
            except Exception as exc:
                raise ShardScheduleError(i, epoch, exc) from exc
        want = [opened[i][2] for i in packed]
        return {i: len(w) + int(np.dot(w, np.arange(len(w))[::-1])) for i, w in zip(packed, want)}

    # Overflow slots are packed in ascending link order, whatever order the
    # violations surfaced in.
    ascending = np.arange(plan.links.n_links)

    def stage(snapshot: np.ndarray, epoch: int) -> ScheduledRound:
        asked = [s for s in plan.shards if snapshot[s.link_indices].sum() > 0]
        demand = {s.index: replace(s.links, demand=snapshot[s.link_indices]) for s in asked}
        planned: dict[int, EpochSchedule | None] = {}
        # Per-shard thread CPU.  Sum = compute the simulation performed;
        # max = the epoch's scheduling phase when every region runs on its
        # own controller, as a federated deployment experiences it.  The
        # lockstep pack's CPU is split over its lanes by their work.
        secs: dict[int, float] = {}
        wall0 = time.perf_counter()
        laned = [s.index for s in asked if s.index in lanes]
        if laned:
            with phase(
                obs, "sharded.schedule", measure=True, engine="sharded", epoch=epoch,
                lanes=laned,
            ) as span:
                work = pack_lanes(laned, demand, epoch, planned)
            if span.cpu_s is not None:
                if not work:  # nothing packed: the lanes opened, evenly
                    work = dict.fromkeys(laned, 1)
                total = sum(work.values())
                secs.update((i, span.cpu_s * w / total) for i, w in work.items())
        for shard in asked:
            if planned.get(shard.index) is not None:
                continue
            with phase(
                obs,
                "sharded.schedule",
                measure=True,
                engine="sharded",
                epoch=epoch,
                shard=shard.index,
            ) as span:
                try:
                    scheduler = schedulers[shard.index]
                    planned[shard.index] = scheduler(demand[shard.index], epoch)
                except Exception as exc:
                    raise ShardScheduleError(shard.index, epoch, exc) from exc
            if span.cpu_s is not None:
                secs[shard.index] = secs.get(shard.index, 0.0) + span.cpu_s
        wall_s = time.perf_counter() - wall0
        planned = [planned[s.index] for s in asked]

        # Superpose by slot index: combined slot t is every shard's slot t,
        # in shard order (shards shorter than the round contribute nothing
        # to its tail — each link still appears exactly demand-many times
        # per round).  An empty slot stays a slot, as the monolithic stage
        # hands the loop a scheduler's empty slots too.
        members, slot_of = [], []
        for shard, p in zip(asked, planned):
            local, cuts = join([slot.links for slot in p.schedule.slots])
            members.append(shard.link_indices[local])
            slot_of.append(np.repeat(np.arange(len(cuts)), np.diff([0, *cuts])))
        slot_of = np.concatenate(slot_of)
        members = np.concatenate(members)[np.argsort(slot_of, kind="stable")]
        round_len = max(p.schedule.length for p in planned)
        ends = np.cumsum(np.bincount(slot_of, minlength=round_len)).tolist()
        reconciled = 0
        truth = schedule_truth([p.schedule for p in planned])
        # Reconcile on every multi-shard plan, even when a single shard
        # happened to carry all of this epoch's demand: the exact-model
        # re-check is cheap and also catches infeasible slots from a
        # degraded regional protocol.  The 1-shard (monolithic-equivalent)
        # plan is the only one served verbatim.
        if plan.n_shards > 1:
            with phase(obs, "sharded.reconcile", engine="sharded", epoch=epoch):
                members, ends, report = repair(members, ends, plan.links, model, ascending)
            reconciled = report.repaired_tx
            truth.append(report)
            if ledger is not None:
                # Boundary reports: every demanded boundary link of an
                # asked shard tells the reconciler what its shard scheduled
                # near the edge.  Serialized round: one announcement per
                # membership moved into overflow slots.  Both ride this
                # epoch's critical path when the loop prices the round.
                reports = sum(
                    int((snapshot[s.link_indices[s.boundary]] > 0).sum())
                    for s in asked
                )
                ledger.charge(epoch, "sharded", "report", reports)
                ledger.charge(epoch, "sharded", "reconcile", reconciled)

        return ScheduledRound(
            members=members,
            ends=ends,
            length=len(ends),
            # Shards compute concurrently (max, not sum); the epoch's
            # control messages serialize on shared air, so the loop's
            # pricing adds them on top of the slowest shard.
            overhead_seconds=max(p.overhead_seconds for p in planned),
            cpu_s=sum(secs.values()) if secs else None,
            critical_s=max(secs.values()) if secs else None,
            wall_s=wall_s,
            reconciled=reconciled,
            truth=truth,
        )

    return epoch_loop(
        plan.links,
        generator,
        stage,
        cfg,
        ledger,
        None,
        on_epoch,
        obs,
        engine="sharded",
        plan=plan,
    )
