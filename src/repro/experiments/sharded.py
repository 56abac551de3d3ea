"""E9 — the sharded multi-region epoch engine vs the monolithic loop.

The first scenario family beyond a single region: 16x16 and 24x24 planned
grids, partitioned into spatial shards that each run their *own* FDD
instance on their own radio substrate (regional K and ID bits), with
guard-margin budgeted boundary links and a cross-shard reconciliation pass
(:mod:`repro.traffic.sharded`).

For each grid the harness sweeps arrival rates under both engines and
reports, per operating point: throughput, delay, protocol air overhead,
the *scheduling compute* the simulation performed (summed scheduler CPU
time), the *critical-path* scheduling time (per-epoch maximum over the
regions — what the scheduling phase costs when every region has its own
controller), the *wall-clock* the simulation host actually spent in the
scheduling fan-out, and the links serialized by reconciliation.  Summary
rows give each engine's stability knee and the sharded speedups.  The
engine schedules the regions one at a time in the caller's thread, so
each region's CPU is measured as its own controller would spend it, not
inflated by sibling regions time-slicing the host's cores; compute and
critical-path ratios are then properties of the decomposition, and the
wall column is the serial fan-out as the host ran it.

Expected headlines: on the 16x16 grid the sharded engine cuts the
critical-path scheduling time by well over 2x (about the inverse of the
largest region's share of the links, since FDD's simulated cost is one
first-fit pack) while keeping the stability knee within one sweep step
of the monolithic engine; on the 24x24 grid the monolithic backbone
protocol (K >= ID(GS) = 8, 10-bit elections) burns half of every epoch
in control air time, so sharding *extends* the stability region — the
federated deployment argument in one table.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.analysis.tables import TextTable
from repro.core.config import ProtocolConfig
from repro.core.fdd import fdd_on_network
from repro.experiments.common import (
    PAPER_PROTOCOL,
    SHARDED_GUARD_FACTOR,
    SHARDED_RADIUS_M,
    SHARDED_SHARDS,
    TRAFFIC_DENSITY,
    ExperimentProfile,
    add_knee_row,
    add_sweep_rows,
    epoch_config,
    finish_obs,
    grid_mesh,
    obs_for,
    poisson_arrivals,
    seconds_cell,
    sweep,
)
from repro.traffic import (
    distributed_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
)
from repro.util.rng import spawn

#: The trace's scheduling-time fields, in the table's column order:
#: compute, critical path, wall.
TIMING_FIELDS = (
    "scheduling_seconds",
    "critical_path_seconds",
    "scheduling_wall_seconds",
)


def backbone_protocol(network) -> ProtocolConfig:
    """The paper's protocol constants sized for a whole backbone.

    K follows the paper's correctness rule ``K >= ID(GS)`` and the ID width
    must cover every node — both grow with the deployment, which is exactly
    the cost the regional protocols of the sharded engine avoid.
    """
    diameter = network.interference_diameter()
    k = PAPER_PROTOCOL.k
    if math.isfinite(diameter):
        k = max(k, int(math.ceil(diameter)))
    id_bits = max(PAPER_PROTOCOL.id_bits, int(network.n_nodes - 1).bit_length())
    return replace(PAPER_PROTOCOL, k=k, id_bits=id_bits)


def sharded_plan(links, network):
    """E9's spatial partition of ``links``: :data:`SHARDED_SHARDS` tiles,
    boundary links within :data:`SHARDED_RADIUS_M`, guard budgets at
    :data:`SHARDED_GUARD_FACTOR` x noise."""
    return plan_for_network(
        links,
        network,
        n_shards=SHARDED_SHARDS,
        interference_radius_m=SHARDED_RADIUS_M,
        guard_factor=SHARDED_GUARD_FACTOR,
    )


def sharded_experiment(profile: ExperimentProfile) -> TextTable:
    """E9: monolithic vs sharded epoch engine on multi-region grids."""
    obs = obs_for(profile, "sharded")
    table = TextTable(
        [
            "grid",
            "engine",
            "lambda (pkt/node/slot)",
            "throughput (pkt/slot)",
            "mean delay (slots)",
            "overhead (slots/epoch)",
            "compute (s)",
            "critical path (s)",
            "wall (s)",
            "wall speedup",
            "reconciled (/epoch)",
            "stable",
        ],
        title="Sharded multi-region epoch engine — FDD per region vs one "
        f"backbone protocol, density {TRAFFIC_DENSITY:g}/km^2, "
        f"{SHARDED_SHARDS} shards, guard {SHARDED_GUARD_FACTOR:g}x "
        f"noise at radius {SHARDED_RADIUS_M:g} m, "
        f"T={profile.traffic_epoch_slots} slots/epoch, "
        f"{profile.sharded_epochs} epochs",
    )

    for (rows, cols), lambdas in zip(profile.sharded_grids, profile.sharded_lambdas):
        grid = f"{rows}x{cols}"
        network, gateways, links = grid_mesh(
            profile, rows, cols, "sharded-forest", rows
        )
        protocol_cfg = backbone_protocol(network)
        plan = sharded_plan(links, network)
        config = epoch_config(profile, profile.sharded_epochs)

        def generator(rate: float, seed_index: int):
            return poisson_arrivals(
                profile, network, gateways, rate, seed_index, key=("sharded-gen", rows)
            )

        def run_mono(rate: float, seed_index: int):
            scheduler = distributed_scheduler(
                network,
                fdd_on_network,
                config=protocol_cfg,
                seed=spawn(profile.seed, "sharded-fdd", rows),
            )
            return run_epochs(
                links, generator(rate, seed_index), scheduler, config, obs=obs
            )

        def run_sharded(rate: float, seed_index: int):
            factory = sharded_distributed_factory(
                network,
                fdd_on_network,
                config=protocol_cfg,
                seed=spawn(profile.seed, "sharded-fdd", rows),
            )
            return run_epochs_sharded(
                plan,
                generator(rate, seed_index),
                factory,
                network.model,
                config,
                obs=obs,
            )

        knees, totals = {}, {}
        for engine, run_at in (("monolithic", run_mono), ("sharded", run_sharded)):
            swept = sweep(lambdas, run_at)
            # Summed per timing column; None on hosts without a thread-CPU
            # clock (never report a silent 0.0 as a measurement).
            columns = [[getattr(t, f) for _, t in swept] for f in TIMING_FIELDS]
            totals[engine] = [None if None in c else sum(c) for c in columns]
            knees[engine] = add_sweep_rows(
                table,
                (grid, engine),
                swept,
                lambda p, t: (
                    f"{p.throughput:.3f}",
                    f"{p.mean_delay:.1f}",
                    f"{p.overhead_slots:.1f}",
                    *(seconds_cell(getattr(t, f)) for f in TIMING_FIELDS),
                    "-",
                    f"{t.reconciled_total / max(t.n_epochs_run, 1):.1f}",
                ),
            )
        for engine, knee in knees.items():
            cells = ["-", "-", "-", *map(seconds_cell, totals[engine]), "-", "-"]
            add_knee_row(table, (grid, engine), knee, cells)
        compute, critical, wall = (
            "~" if mono is None or shard is None else f"{mono / max(shard, 1e-9):.2f}x"
            for mono, shard in zip(totals["monolithic"], totals["sharded"])
        )
        table.add_row(
            grid, "speedup", "-", "-", "-", "-", compute, critical, "-", wall, "-", "-"
        )
    finish_obs(obs)
    return table
