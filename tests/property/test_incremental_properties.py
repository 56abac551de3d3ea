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

Patching a sparse model is refused
(``tests/integration/test_sparse_equivalence.py``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import grid_scenario
from repro.scheduling.feasibility import infeasible_slots
from repro.scheduling.greedy_physical import greedy_physical
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    ScheduleCache,
    centralized_scheduler,
    patch_schedule,
    run_epochs,
)
from tests.conftest import drift_threshold


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
                scheduler, policy=policy, epoch_slots=150
            )
        with drift_threshold(0.0):
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
