"""Bench for the sharded multi-region epoch engine (E9).

Runs the monolithic and sharded engines over the 16x16 and 24x24 grids
(FDD per region vs one backbone protocol) and records the comparison
table.  The engine schedules the regions one after another in the
caller's thread, so each region's CPU is measured alone.  Beyond the
snapshot, asserts the PR's headlines on the 16x16 grid at 4 shards:

* the sharded engine cuts the *critical-path* scheduling time — the
  per-epoch maximum over the concurrently computing regions, i.e. what the
  scheduling phase costs when every region has its own controller — by at
  least 2x;
* the measured stability knee stays within one sweep step of the
  monolithic knee;
* the batched SINR admission kernel (the dense ``SlotArena``) agrees
  verdict-for-verdict with the scalar ``SlotState.can_add`` scan on a real
  bench-scale grid, so the vectorized schedulers build identical schedules;
* the degenerate 1-shard partition reproduces the monolithic engine
  epoch-for-epoch under the ``"always"`` policy, the one the sharded
  engine runs (the equivalence harness that keeps the refactor honest).
"""

import numpy as np
import pytest

from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL, ExperimentProfile
from repro.experiments.sharded import sharded_experiment
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.feasibility import SlotArena
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    distributed_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
)
from repro.util.rng import spawn
from tests.conftest import SlotState, open_slot

FUNCTIONAL_FIELDS = (
    "epoch",
    "arrivals",
    "served",
    "delivered",
    "backlog_end",
    "demand_scheduled",
    "schedule_length",
    "overhead_slots",
    "cache_hit",
    "patched",
    "drift",
)


def _functional(record):
    return tuple(getattr(record, f) for f in FUNCTIONAL_FIELDS)


def _rows_by_kind(table):
    """Split data rows from the per-grid knee and speedup summary rows."""
    data, knees, speedups = {}, {}, {}
    for row in table._rows:
        grid, engine, lam = row[0], row[1], row[2]
        if engine == "speedup":
            speedups[grid] = row
        elif lam == "knee":
            knees[(grid, engine)] = row
        else:
            data[(grid, engine, lam)] = row
    return data, knees, speedups


# Column indices in the E9 table (see sharded_experiment's header).
COL_COMPUTE = 6
COL_CRITICAL = 7
COL_RECONCILED = 10


@pytest.mark.benchmark(group="traffic")
def test_sharded_engine_speedup_and_knee_fidelity(benchmark, bench_profile, save_table):
    table = benchmark.pedantic(
        sharded_experiment, args=(bench_profile,), rounds=1, iterations=1
    )
    # Timing columns are masked in the committed snapshot (re-runs must not
    # churn it), the wall-speedup ratio included: it moves with how busy
    # the host's second core is.  The assertions below read the unmasked
    # table.
    save_table(
        "sharded",
        table,
        volatile=("compute (s)", "critical path (s)", "wall (s)", "wall speedup"),
    )

    per_grid = [
        len(lams) * 2 + 3 for lams in bench_profile.sharded_lambdas
    ]  # 2 engines x rates + 2 knee rows + 1 speedup row
    assert table.n_rows == sum(per_grid)

    data, knees, speedups = _rows_by_kind(table)
    grids = [f"{r}x{c}" for r, c in bench_profile.sharded_grids]
    assert "16x16" in grids

    # --- >= 2x critical-path scheduling speedup on the 16x16 grid.
    crit_cell = speedups["16x16"][COL_CRITICAL]
    assert crit_cell.endswith("x")
    crit_speedup = float(crit_cell[:-1])
    assert crit_speedup >= 2.0, (
        f"sharded engine should cut the critical-path scheduling time "
        f">= 2x on the 16x16 grid at 4 shards, measured {crit_speedup:.2f}x"
    )

    # --- The knee must stay within one sweep step of the monolithic knee.
    steps = sorted(bench_profile.sharded_lambdas[grids.index("16x16")])

    def step_index(cell):
        return steps.index(float(cell)) if cell != "-" else None

    mono_knee = step_index(knees[("16x16", "monolithic")][-1])
    shard_knee = step_index(knees[("16x16", "sharded")][-1])
    assert mono_knee is not None, "monolithic engine unstable at every swept rate"
    assert shard_knee is not None, "sharded engine unstable at every swept rate"
    assert abs(shard_knee - mono_knee) <= 1, (
        f"sharded knee moved more than one sweep step: "
        f"{knees[('16x16', 'sharded')][-1]} vs monolithic "
        f"{knees[('16x16', 'monolithic')][-1]}"
    )

    # --- Reconciliation only ever happens on multi-shard rounds, and the
    # monolithic engine reports none.
    for (grid, engine, lam), row in data.items():
        if engine == "monolithic":
            assert row[COL_RECONCILED] == "0.0"


@pytest.mark.benchmark(group="traffic")
def test_batched_admission_kernels_match_incremental_scan():
    """The dense slot arena equals the scalar per-slot scan.

    On a bench-scale 16x16 grid: build a stack of populated slots — once
    as ``SlotState`` objects, once in a ``SlotArena`` — then check every
    (candidate, slot) admission verdict both ways: the incremental
    ``SlotState.can_add`` scan and one ``SlotArena.can_add_all`` pass per
    candidate.  Exact equality (not allclose): the greedy scheduler,
    deficit patcher, and reconciliation packer all consult the arena, so
    any verdict flip would change schedules.
    """
    network = grid_network(16, 16, density_per_km2=1000.0)
    gateways = planned_gateways(16, 16, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(11, "bk"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    model = network.model
    assert not getattr(model.power, "is_sparse_power", False)  # the dense branch
    heads, tails = links.heads, links.tails

    order = np.random.default_rng(20080617).permutation(links.n_links)
    states: list[SlotState] = []
    arena = SlotArena(model)
    for k in order[:48]:
        sender, receiver = int(heads[k]), int(tails[k])
        for j, st in enumerate(states):
            if st.try_add(sender, receiver):
                arena.can_add_all(sender, receiver)
                arena.add(j, sender, receiver)
                break
        else:
            fresh = SlotState(model)
            if fresh.try_add(sender, receiver):
                states.append(fresh)
                open_slot(arena, sender, receiver)
    assert len(states) >= 2 and any(len(st) >= 2 for st in states)

    admitted = 0
    for k in order[48:168]:
        sender, receiver = int(heads[k]), int(tails[k])
        per_slot = np.array([st.can_add(sender, receiver) for st in states])
        assert np.array_equal(arena.can_add_all(sender, receiver), per_slot)
        admitted += int(per_slot.sum())
    assert admitted  # the grid holds verdicts of both kinds
    assert admitted < 120 * len(states)


@pytest.mark.benchmark(group="traffic")
def test_single_shard_reproduces_monolithic_engine():
    """n_shards=1 differential equivalence.

    FDD (stochastic, overhead-priced) on the paper's 8x8 grid: the sharded
    engine with the degenerate 1-shard partition must reproduce the
    monolithic ``run_epochs`` epoch-for-epoch — backlogs, delivered packets,
    overhead and per-packet delays.
    """
    network = grid_network(8, 8, density_per_km2=1000.0)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(7, "f"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    config = EpochConfig(epoch_slots=200, n_epochs=5, divergence_factor=4.0)

    def generator():
        return PoissonArrivals(
            network.n_nodes, 0.01, gateways=gateways, seed=spawn(7, "g")
        )

    scheduler = distributed_scheduler(
        network, fdd_on_network, config=PAPER_PROTOCOL, seed=7
    )
    mono = run_epochs(links, generator(), scheduler, config, model=network.model)

    plan = plan_for_network(links, network, n_shards=1, interference_radius_m=80.0)
    assert plan.n_shards == 1 and not plan.boundary_mask().any()
    factory = sharded_distributed_factory(
        network, fdd_on_network, config=PAPER_PROTOCOL, seed=7
    )
    shard = run_epochs_sharded(plan, generator(), factory, network.model, config)

    assert [_functional(r) for r in shard.records] == [
        _functional(r) for r in mono.records
    ]
    assert shard.diverged == mono.diverged
    assert np.array_equal(shard.queues.delay_array(), mono.queues.delay_array())
    assert np.array_equal(shard.queues.backlog, mono.queues.backlog)
    shard.queues.check_conservation()
