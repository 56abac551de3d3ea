"""Unit tests for the sharded epoch engine's building blocks.

Tiling arithmetic, partition/boundary/budget construction, the
reconciliation pass, and the zero/empty edges of ``TrafficTrace``
accounting (zero-epoch traces must not divide by zero or crash on empty
arrays anywhere in the summary pipeline).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import grid_scenario
from repro.phy.interference import PhysicalInterferenceModel
from repro.topology.regions import GridTiling, SquareRegion, tile_counts_for
from repro.traffic import (
    EpochConfig,
    EpochSchedule,
    LinkQueues,
    PoissonArrivals,
    TrafficTrace,
    backlog_slope,
    centralized_scheduler,
    is_stable,
    partition_links,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    stability_margin,
    summarize_trace,
)
from repro.scheduling.greedy_physical import repair
from repro.scheduling.schedule import Slot
from repro.traffic.sharded import affordable_budget
from repro.util.ranges import join, split_at
from tests.conftest import SlotState


@pytest.fixture(scope="module")
def mesh():
    return grid_scenario(1000.0, rep=0, rows=6, cols=6, n_gateways=2)


# ---------------------------------------------------------------------------
# Tiling arithmetic
# ---------------------------------------------------------------------------


def test_tile_counts_factorization():
    assert tile_counts_for(1) == (1, 1)
    assert tile_counts_for(4) == (2, 2)
    assert tile_counts_for(6) == (3, 2)
    assert tile_counts_for(5) == (5, 1)
    with pytest.raises(ValueError):
        tile_counts_for(0)


def test_tile_of_covers_region_exactly_once():
    tiling = GridTiling(SquareRegion(100.0), nx=2, ny=2)
    pos = np.array([[10.0, 10.0], [60.0, 10.0], [10.0, 60.0], [99.0, 99.0]])
    assert tiling.tile_of(pos).tolist() == [0, 1, 2, 3]
    # The outer boundary clamps inward: corner positions still land in a tile.
    edge = np.array([[100.0, 100.0], [0.0, 100.0], [100.0, 0.0]])
    assert tiling.tile_of(edge).tolist() == [3, 2, 1]


def test_internal_edge_distance_single_tile_is_infinite():
    tiling = GridTiling(SquareRegion(100.0), nx=1, ny=1)
    pos = np.array([[0.0, 0.0], [50.0, 50.0]])
    assert np.all(np.isinf(tiling.internal_edge_distance(pos)))


def test_internal_edge_distance_measures_nearest_cut():
    tiling = GridTiling(SquareRegion(100.0), nx=2, ny=2)
    pos = np.array([[40.0, 10.0], [10.0, 45.0], [50.0, 50.0], [1.0, 2.0]])
    dist = tiling.internal_edge_distance(pos)
    assert dist == pytest.approx([10.0, 5.0, 0.0, 48.0])


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def test_partition_links_disjoint_union(mesh):
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=60.0)
    seen = np.concatenate([s.link_indices for s in plan.shards])
    assert np.array_equal(np.sort(seen), np.arange(mesh.links.n_links))
    for shard in plan.shards:
        np.testing.assert_array_equal(
            shard.links.heads, mesh.links.heads[shard.link_indices]
        )
        assert shard.n_shards == plan.n_shards


def test_single_shard_plan_has_no_boundary_and_no_budget(mesh):
    plan = plan_for_network(mesh.links, mesh.network, n_shards=1,
                            interference_radius_m=60.0)
    assert plan.n_shards == 1
    assert not plan.boundary_mask().any()
    assert plan.shards[0].budget_mw is None
    # with_budget(None) must return the identical oracle object.
    model = mesh.network.model
    assert model.with_budget(plan.shards[0].budget_mw) is model


def test_boundary_detection_symmetric_in_endpoints(mesh):
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=60.0)
    tiling = plan.tiling
    near = tiling.internal_edge_distance(mesh.network.positions) <= 60.0
    for shard in plan.shards:
        expected = near[shard.links.heads] | near[shard.links.tails]
        np.testing.assert_array_equal(shard.boundary, expected)


def test_guard_budget_clamped_to_affordable(mesh):
    model = mesh.network.model
    afford = affordable_budget(mesh.links, model)
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=60.0, guard_factor=50.0)
    for shard in plan.shards:
        if shard.budget_mw is None:
            continue
        assert np.all(shard.budget_mw <= afford + 1e-12)
        # Every link must remain feasible alone under its shard's oracle.
        budgeted = model.with_budget(shard.budget_mw)
        for k in range(shard.links.n_links):
            state = SlotState(budgeted)
            assert state.can_add(
                int(shard.links.heads[k]), int(shard.links.tails[k])
            )


def test_zero_guard_factor_installs_no_budget(mesh):
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=60.0, guard_factor=0.0)
    assert all(s.budget_mw is None for s in plan.shards)
    assert plan.boundary_mask().any()  # boundary detection is independent


def test_partition_validates_inputs(mesh):
    tiling = GridTiling(mesh.network.region, 2, 2)
    with pytest.raises(ValueError):
        partition_links(mesh.links, mesh.network.positions, tiling,
                        mesh.network.model, interference_radius_m=-1.0)
    with pytest.raises(ValueError):
        partition_links(mesh.links, mesh.network.positions, tiling,
                        mesh.network.model, 10.0, guard_factor=-0.5)


# ---------------------------------------------------------------------------
# Budgeted feasibility
# ---------------------------------------------------------------------------


def test_budgeted_model_is_stricter_but_consistent(mesh):
    model = mesh.network.model
    budget = np.full(model.n_nodes, model.radio.noise_mw)
    budgeted = model.with_budget(budget)
    assert isinstance(budgeted, PhysicalInterferenceModel)
    snd = mesh.links.heads[:4]
    rcv = mesh.links.tails[:4]
    data, ack = model.link_sinrs(snd, rcv)
    bdata, back = budgeted.link_sinrs(snd, rcv)
    assert np.all(bdata <= data + 1e-12)
    assert np.all(back <= ack + 1e-12)
    # Budget feasibility implies exact feasibility (margins only shrink).
    if budgeted.is_feasible(snd, rcv):
        assert model.is_feasible(snd, rcv)


# ---------------------------------------------------------------------------
# Reconciliation: greedy_physical's exact repair pass on a superposed round
# ---------------------------------------------------------------------------


def _repair(combined, links, model):
    """The sharded stage's call on the flat round of ``combined`` slots:
    overflow packed in ascending link order; the verified slots come back
    cut apart."""
    members, ends = join(combined)
    members, ends, report = repair(members, ends, links, model, np.arange(links.n_links))
    return split_at(members, ends), report


def reconcile(combined, links, model):
    slots, report = _repair(combined, links, model)
    return slots, report.repaired_tx


def test_repair_keeps_feasible_slots_verbatim(mesh):
    model = mesh.network.model
    # Single-link slots are always feasible: nothing to do.
    combined = [np.array([k], dtype=np.intp) for k in range(4)]
    kept, report = _repair(combined, mesh.links, model)
    assert report.repaired_tx == report.repair_rounds == report.violations == 0
    assert [k.tolist() for k in kept] == [[0], [1], [2], [3]]
    assert report.margins.size == 4 and report.margins.min() >= 1.0


def test_repair_drops_empty_slots(mesh):
    empty = np.empty(0, dtype=np.intp)
    kept, moved = reconcile([empty, np.array([0]), empty], mesh.links, mesh.network.model)
    assert moved == 0 and [k.tolist() for k in kept] == [[0]]


def test_repair_serializes_violations(mesh):
    links, model = mesh.links, mesh.network.model
    # Find two links sharing a node (parent/child): guaranteed infeasible
    # concurrently (half-duplex), so reconciliation must split them.
    pair = None
    for a in range(links.n_links):
        for b in range(links.n_links):
            if a != b and links.tails[a] == links.heads[b]:
                pair = (a, b)
                break
        if pair:
            break
    assert pair is not None
    combined = [np.array(pair, dtype=np.intp)]
    kept, moved = reconcile(combined, links, model)
    assert moved >= 1
    # Every membership survives, just serialized.
    flat = sorted(int(k) for slot in kept for k in slot)
    assert flat == sorted(pair)
    # And every reconciled slot is feasible under the exact model.
    for slot in kept:
        assert model.is_feasible(links.heads[slot], links.tails[slot])


def test_repair_raises_on_a_link_infeasible_even_alone():
    """A link that fails SINR even alone has no slot to go to: it is peeled,
    and the re-pack refuses it, as ``greedy_physical`` does, on the dense
    model and on the truncated sparse one (judged by its geometry) alike —
    also when it sits in a slot of its own.  No shard oracle can have
    scheduled one."""
    from repro.phy.propagation import LogDistancePathLoss
    from repro.phy.radio import RadioConfig
    from repro.phy.sparse import sparse_gain_model
    from repro.scheduling.links import LinkSet

    radio = RadioConfig()
    # Dead link 0->1 (140 m: no SINR even alone), and a kilometre away a
    # relay chain 2->3->4 whose two hops cannot share a slot (node 3).
    positions = np.array(
        [[0.0, 0.0], [140.0, 0.0], [1000.0, 0.0], [1030.0, 0.0], [1060.0, 0.0]]
    )
    sparse = sparse_gain_model(
        positions,
        np.full(5, 10 ** (12.0 / 10.0)),
        LogDistancePathLoss(alpha=3.0),
        radio,
        cutoff_m=150.0,
        far_field="none",
    )
    links = LinkSet(
        heads=np.array([0, 2, 3]),
        tails=np.array([1, 3, 4]),
        demand=np.array([1, 1, 1]),
        ids=np.array([10, 11, 12]),
    )
    for model in (
        sparse.interference_model(radio),
        PhysicalInterferenceModel(sparse.power.toarray(), radio),
    ):
        assert not SlotState(model).can_add(0, 1)
        for combined in ([np.array([0, 1, 2])], [np.array([1]), np.array([0])]):
            with pytest.raises(ValueError, match="0->1 is infeasible even alone"):
                reconcile(combined, links, model)
        # Without the dead link the hop conflict is serialized as before.
        kept, moved = reconcile([np.array([1, 2])], links, model)
        assert moved == 1
        assert [slot.tolist() for slot in kept] == [[2], [1]]


def test_repair_gives_a_link_peeled_twice_two_overflow_slots(mesh):
    """Demand 2: the same link peeled out of two slots of one round lands
    in two *different* overflow slots — a slot that already holds it shares
    both endpoints with it, which the admission test itself refuses."""
    links, model = mesh.links, mesh.network.model
    pairs = _shared_node_pairs(links)
    a, b = pairs[0]
    # A later link that coexists with ``a`` — and heads a conflict of its own.
    c, d = next(
        (c, d)
        for c, d in pairs
        if c > a
        and c != b
        and model.is_feasible(links.heads[[a, c]], links.tails[[a, c]])
    )
    combined = [np.array([a, b]), np.array([a, b]), np.array([c, d])]
    kept, moved = reconcile(combined, links, model)
    assert moved == 3  # position breaks the tied (deaf) margins: a, a, c
    # Ascending link order: a opens an overflow slot, its second membership
    # is refused there and opens another, c joins the *earliest* of the two.
    assert [slot.tolist() for slot in kept] == [[b], [b], [d], [a, c], [a]]


def _shared_node_pairs(links):
    """(a, b) link pairs with ``tails[a] == heads[b]`` — half-duplex
    conflicts, guaranteed to fail together in one slot with tied margins."""
    return [
        (a, b)
        for a in range(links.n_links)
        for b in range(links.n_links)
        if a != b and links.tails[a] == links.heads[b]
    ]


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------


def test_single_shard_round_keeps_an_empty_slot(mesh, monkeypatch):
    """A scheduler's empty slot mid-round is a slot of the served round,
    on one shard as on the monolithic engine: same rounds, same records."""
    model = mesh.network.model

    def with_gap(scheduler):
        def schedule(links, epoch):
            planned = scheduler(links, epoch)
            slots = list(planned.schedule.slots)
            slots.insert(1, Slot([]))
            gapped = replace(planned.schedule, slots=slots)
            return EpochSchedule(gapped, planned.overhead_seconds)

        return schedule

    rounds = []
    play = LinkQueues.play

    def recording(queues, members, ends, *args):
        rounds.append((members.tolist(), list(ends)))
        return play(queues, members, ends, *args)

    monkeypatch.setattr(LinkQueues, "play", recording)
    config = EpochConfig(epoch_slots=60, n_epochs=4)

    def arrivals():
        return PoissonArrivals(mesh.network.n_nodes, 0.01, gateways=mesh.gateways, seed=5)

    mono = run_epochs(
        mesh.links, arrivals(), with_gap(centralized_scheduler(model)), config, model=model
    )
    mono_rounds, rounds[:] = rounds[:], []
    plan = plan_for_network(mesh.links, mesh.network, n_shards=1, interference_radius_m=60.0)
    sharded = run_epochs_sharded(
        plan, arrivals(), lambda shard, m: with_gap(centralized_scheduler(m)), model, config
    )
    assert rounds == mono_rounds and len(rounds) == 4
    assert all(ends[1] == ends[0] > 0 for _, ends in rounds)  # slot 1 is empty
    assert [r.schedule_length for r in sharded.records] == [
        r.schedule_length for r in mono.records
    ]
    assert [replace(r, n_shards=1) for r in sharded.records] == mono.records


# ---------------------------------------------------------------------------
# TrafficTrace zero/empty edges
# ---------------------------------------------------------------------------


def test_zero_epoch_trace_accounting_is_total():
    trace = TrafficTrace(config=EpochConfig())
    assert trace.n_epochs_run == 0
    assert trace.total_slots == 0
    assert trace.arrivals_total == 0
    assert trace.delivered_total == 0
    assert trace.overhead_slots_total == 0
    assert trace.cache_hits == 0
    assert trace.patched_epochs == 0
    assert trace.reconciled_total == 0
    assert trace.cache_hit_rate == 0.0  # no requests: not a division by zero
    series = trace.backlog_series()
    assert series.size == 0 and series.dtype == np.int64
    assert trace.summary() == (
        "TrafficTrace(epochs=0, arrivals=0, delivered=0, backlog=0)"
    )


def test_zero_epoch_trace_stability_pipeline():
    trace = TrafficTrace(config=EpochConfig())
    assert backlog_slope(trace) == 0.0
    assert stability_margin(trace) == 0.0
    assert is_stable(trace)
    metrics = summarize_trace(trace, offered_rate=0.01)
    assert metrics.throughput == 0.0
    assert np.isnan(metrics.mean_delay) and np.isnan(metrics.p99_delay)
    assert metrics.backlog_final == 0
    assert metrics.overhead_slots == 0.0
    assert metrics.cache_hit_rate == 0.0
    assert metrics.stable


def test_all_zero_demand_trace_has_zero_hit_rate():
    # Records exist but the scheduler was never asked: rate stays 0, not 0/0.
    from repro.traffic import EpochRecord

    trace = TrafficTrace(config=EpochConfig())
    trace.book(
        EpochRecord(
            epoch=0, arrivals=0, served=0, delivered=0, backlog_end=0,
            demand_scheduled=0, schedule_length=0, overhead_slots=0,
        )
    )
    assert trace.cache_hit_rate == 0.0
    assert trace.summary().endswith("backlog=0)")
