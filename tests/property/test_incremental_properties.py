"""Property tests for the incremental-rescheduling layer.

The two load-bearing guarantees:

1. *Zero-threshold equivalence*: with ``reschedule_policy="drift-threshold"``
   and drift threshold 0, a deterministic zero-overhead scheduler produces a
   trace epoch-for-epoch identical to ``always`` — the cache only ever
   reuses a schedule built for a byte-identical snapshot, so caching is
   observationally invisible.
2. *Patch feasibility*: whatever demand perturbation is thrown at it, a
   patched schedule never violates the exact physical-interference SINR
   model and always satisfies the new demand exactly.

And the sparse backend's patch: ``patch_schedule`` over a
``SparsePowerMatrix`` (its slot arena the batched sparse kernel) returns the
slot lists, or the ``None``, the same call returns over the dense twin of
the same entries and budget.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import grid_scenario
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.radio import RateTable
from repro.phy.sparse import sparse_gain_model
from repro.routing.forest import build_routing_forest_csr
from repro.routing.gateways import planned_gateways
from repro.scheduling.feasibility import feasible_alone, infeasible_slots
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.greedy_rate import greedy_rate
from repro.scheduling.links import LinkSet
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    ScheduleCache,
    centralized_scheduler,
    patch_schedule,
    run_epochs,
)
from repro.util.rng import spawn


@pytest.fixture(scope="module")
def mesh():
    return grid_scenario(2000.0, rep=0, rows=4, cols=4, n_gateways=2)


def _functional_fields(record):
    """Everything in an EpochRecord except the cache-accounting fields."""
    return (
        record.epoch,
        record.arrivals,
        record.served,
        record.delivered,
        record.backlog_end,
        record.demand_scheduled,
        record.schedule_length,
        record.overhead_slots,
    )


@settings(max_examples=8, deadline=None)
@given(
    rate=st.floats(min_value=0.005, max_value=0.03),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_zero_threshold_drift_policy_is_equivalent_to_always(mesh, rate, seed):
    """Drift threshold 0 => the cached loop replays `always` exactly."""

    def trace_with(policy):
        generator = PoissonArrivals(
            mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=seed
        )
        config = EpochConfig(epoch_slots=150, n_epochs=6, reschedule_policy=policy)
        scheduler = centralized_scheduler(mesh.network.model)
        if policy != "always":
            scheduler = ScheduleCache(
                scheduler, policy=policy, drift_threshold=0.0, epoch_slots=150
            )
        return run_epochs(mesh.links, generator, scheduler, config)

    always = trace_with("always")
    cached = trace_with("drift-threshold")

    assert [_functional_fields(r) for r in cached.records] == [
        _functional_fields(r) for r in always.records
    ]
    assert np.array_equal(cached.backlog_series(), always.backlog_series())
    assert np.array_equal(
        cached.queues.delay_array(), always.queues.delay_array()
    )
    assert np.array_equal(cached.queues.backlog, always.queues.backlog)
    assert cached.diverged == always.diverged
    # Identical snapshots *do* occur (all-drained epochs repeat), so the run
    # is allowed cache hits — they just must not change anything observable.
    cached.queues.check_conservation()


@settings(max_examples=15, deadline=None)
@given(
    scale=st.floats(min_value=0.0, max_value=3.0),
    flip_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_patched_schedule_feasible_and_demand_exact(mesh, scale, flip_fraction, seed):
    """Any perturbed demand: the patch is SINR-feasible and demand-exact."""
    links, model = mesh.links, mesh.network.model
    cached = greedy_physical(links, model)

    rng = np.random.default_rng(seed)
    perturbed = np.round(links.demand * scale).astype(np.int64)
    flips = rng.random(links.n_links) < flip_fraction
    perturbed[flips] = rng.integers(0, 8, size=int(flips.sum()))
    new_links = replace(links, demand=perturbed)

    patched = patch_schedule(cached, new_links, model)
    assert patched is not None  # unbounded length: patching cannot fail here
    assert np.array_equal(patched.allocations(), perturbed)
    assert not infeasible_slots(patched, model)
    # No slot is left empty.
    assert all(len(slot) > 0 for slot in patched.slots)


@settings(max_examples=8, deadline=None)
@given(
    rate=st.floats(min_value=0.01, max_value=0.04),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cache_hits_charge_zero_overhead_and_stay_feasible(mesh, rate, seed):
    """Across a live cached run: hits/patches cost nothing, schedules stay
    feasible, and packet conservation holds."""
    generator = PoissonArrivals(
        mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=seed
    )
    config = EpochConfig(epoch_slots=120, n_epochs=6, reschedule_policy="patch")
    scheduler = ScheduleCache(
        centralized_scheduler(mesh.network.model, overhead_seconds=0.8),
        policy="patch",
        drift_threshold=0.2,
        model=mesh.network.model,
        epoch_slots=config.epoch_slots,
    )
    trace = run_epochs(mesh.links, generator, scheduler, config)

    for record in trace.records:
        if record.cache_hit or record.patched:
            assert record.overhead_slots == 0
    # The cache's final schedule is still feasible under the exact model.
    if scheduler._cached is not None:
        assert not infeasible_slots(scheduler._cached.schedule, mesh.network.model)
    assert scheduler.stats.requests == sum(
        1 for r in trace.records if r.demand_scheduled > 0
    )
    trace.queues.check_conservation()


def sparse_pipeline(side, cutoff, extra_budget):
    """The ``sparse_10k`` set-up at ``side``² nodes (1 000 nodes/km²,
    carrier-sense cutoff or ``inf``, far-field floor, CSR graph and forest),
    optionally with a per-node budget on top of the floor; returns the
    sparse model, its dense twin over the same entries and budget, and the
    forest's links that decode alone under that budget (demand 0)."""
    network = grid_network(side, side, density_per_km2=1000.0)
    radio = network.radio
    sparse = sparse_gain_model(
        network.positions, network.tx_power_mw, network.propagation, radio, cutoff_m=cutoff
    )
    indptr, indices = communication_csr(
        sparse.power, radio.noise_mw, radio.beta, budget_mw=sparse.floor_mw
    )
    gateways = planned_gateways(side, side, max((side // 10) ** 2, 1))
    forest = build_routing_forest_csr(indptr, indices, gateways, rng=spawn(side, "forest"))
    budget = sparse.floor_mw
    if extra_budget:
        extra = np.random.default_rng(side).uniform(0.0, 0.5 * radio.noise_mw, network.n_nodes)
        budget = extra if budget is None else budget + extra
    twins = [
        PhysicalInterferenceModel(power, radio, budget)
        for power in (sparse.power, sparse.power.toarray())
    ]
    heads = forest.edge_heads
    tails = forest.parent[heads]
    alone = feasible_alone(twins[1], heads, tails)
    links = LinkSet(
        heads=heads[alone],
        tails=tails[alone],
        demand=np.zeros(int(alone.sum()), dtype=np.int64),
        ids=heads[alone].astype(np.int64),
    )
    return *twins, links


@pytest.mark.parametrize("side", [12, 20])
@pytest.mark.parametrize(
    "cutoff, extra_budget, rated",
    [
        (None, False, False),
        (None, True, False),
        (math.inf, False, False),
        (math.inf, True, False),
        # Rate tiers only at cutoff=inf: at a finite cutoff the slot SINRs
        # sum through the scatter-add kernel, in another order than the mesh.
        (math.inf, False, True),
        (math.inf, True, True),
    ],
)
def test_patch_over_sparse_model_equals_patch_over_its_dense_twin(
    side, cutoff, extra_budget, rated
):
    """Six demand vectors per case, each adding, dropping and growing links
    against the cached round; every other patch under a length cap that
    some of them cannot meet."""
    sparse_model, dense_model, links = sparse_pipeline(side, cutoff, extra_budget)
    rng = np.random.default_rng(side)
    base = replace(links, demand=rng.integers(0, 3, links.n_links))
    table = RateTable.geometric(dense_model.radio.beta) if rated else None
    if rated:
        cached = greedy_rate(base, sparse_model, table)
    else:
        cached = greedy_physical(base, sparse_model)
    for patch in range(6):
        demand = base.demand.copy()
        drop = rng.random(links.n_links) < 0.2
        grow = rng.random(links.n_links) < 0.3
        demand[drop] = 0
        demand[grow] += rng.integers(1, 4, int(grow.sum()))
        moved = replace(links, demand=demand)
        assert ((base.demand == 0) & (demand > 0)).any() and (drop & (base.demand > 0)).any()
        max_length = None if patch % 2 == 0 else len(cached.slots) + patch
        patched = [
            patch_schedule(cached, moved, model, max_length=max_length, table=table)
            for model in (sparse_model, dense_model)
        ]
        lists = [p if p is None else [slot.links for slot in p.slots] for p in patched]
        assert lists[0] == lists[1]
        if max_length is None:
            assert lists[0] is not None
            assert rated or np.array_equal(patched[0].allocations(), demand)
