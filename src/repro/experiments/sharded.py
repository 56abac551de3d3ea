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
concurrently computing regions — what the scheduling phase costs when
every region has its own controller), the *wall-clock* the simulation
host actually spent in the scheduling fan-out, and the links serialized
by reconciliation.  Summary rows give each engine's stability knee and
the sharded speedups — including the **wall speedup**, the one number a
``ProcessPoolExecutor`` backend (:data:`SHARDED_EXECUTOR`) changes:
compute/critical-path ratios are properties of the decomposition and hold
on any host, while the wall ratio only approaches the critical-path ratio
when workers genuinely run in parallel.  One operating point per grid is
re-run on the ``thread`` backend and checked record-identical, so the
sweep itself proves executor equivalence every time it runs.

Expected headlines: on the 16x16 grid the sharded engine cuts the
critical-path scheduling wall-clock by well over 2x while keeping the
stability knee within one sweep step of the monolithic engine; on the
24x24 grid the monolithic backbone protocol (K >= ID(GS) = 8, 10-bit
elections) burns half of every epoch in control air time, so sharding not
only speeds the simulation up ~7x on the critical path but *extends* the
stability region — the federated deployment argument in one table.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.analysis.tables import TextTable
from repro.core.config import ProtocolConfig
from repro.core.fdd import fdd_on_network
from repro.experiments.common import (
    PAPER_PROTOCOL,
    SHARDED_GUARD_FACTOR,
    SHARDED_RADIUS_M,
    SHARDED_SHARDS,
    SHARDED_WORKERS,
    TRAFFIC_CONFIRM_SEEDS,
    TRAFFIC_DENSITY,
    TRAFFIC_SLOT_SECONDS,
    ExperimentProfile,
    finish_obs,
    obs_for,
)
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    TrafficTrace,
    distributed_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
    stability_knee,
    stability_sweep,
)
from repro.util.rng import spawn

#: Fan-out backend for the sharded sweep: "process" actually cashes the
#: critical-path parallelism as wall-clock (GIL-free workers); the E9
#: harness cross-checks one operating point per grid against "thread" for
#: bit-identity.
SHARDED_EXECUTOR = "process"


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


def _grid_case(profile: ExperimentProfile, rows: int, cols: int):
    """Network, gateways, forest links, and protocol config for one grid."""
    network = grid_network(rows, cols, density_per_km2=TRAFFIC_DENSITY)
    gateways = planned_gateways(rows, cols, 4)
    forest = build_routing_forest(
        network.comm_adj, gateways, rng=spawn(profile.seed, "sharded-forest", rows)
    )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links, backbone_protocol(network)


def _secs(value: float | None) -> str:
    """Render a thread-CPU timing cell; ``~`` when the clock was unavailable."""
    return "~" if value is None else f"{value:.2f}"


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
        network, gateways, links, protocol_cfg = _grid_case(profile, rows, cols)
        plan = plan_for_network(
            links,
            network,
            n_shards=SHARDED_SHARDS,
            interference_radius_m=SHARDED_RADIUS_M,
            guard_factor=SHARDED_GUARD_FACTOR,
        )
        config = EpochConfig(
            epoch_slots=profile.traffic_epoch_slots,
            n_epochs=profile.sharded_epochs,
            slot_seconds=TRAFFIC_SLOT_SECONDS,
            divergence_factor=4.0,
        )

        def generator(rate: float, seed_index: int):
            key = ("sharded-gen", rows)
            if seed_index:
                key = (*key, seed_index)
            return PoissonArrivals(
                network.n_nodes, rate, gateways=gateways, seed=spawn(profile.seed, *key)
            )

        def run_mono(rate: float, seed_index: int = 0) -> TrafficTrace:
            scheduler = distributed_scheduler(
                network,
                fdd_on_network,
                config=protocol_cfg,
                seed=spawn(profile.seed, "sharded-fdd", rows),
            )
            return run_epochs(
                links, generator(rate, seed_index), scheduler, config, obs=obs
            )

        def run_sharded(
            rate: float, seed_index: int = 0, executor: str = SHARDED_EXECUTOR
        ) -> TrafficTrace:
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
                max_workers=SHARDED_WORKERS,
                executor=executor,
                obs=obs,
            )

        knees: dict[str, float | None] = {}
        compute: dict[str, float | None] = {}
        critical: dict[str, float | None] = {}
        wall: dict[str, float | None] = {}
        kept: dict[str, dict[float, TrafficTrace]] = {}
        for engine, run_at in (("monolithic", run_mono), ("sharded", run_sharded)):
            base_traces: dict[float, TrafficTrace] = {}
            kept[engine] = base_traces

            def run_and_keep(rate: float, seed_index: int = 0, run_at=run_at):
                trace = run_at(rate, seed_index=seed_index)
                if seed_index == 0:
                    base_traces[rate] = trace
                return trace

            points = stability_sweep(
                lambdas,
                run_and_keep,
                confirm_seeds=TRAFFIC_CONFIRM_SEEDS,
            )
            knees[engine] = stability_knee(points)
            # Timing fields are None on hosts without a thread-CPU clock
            # (satellite rule: never report a silent 0.0 as a measurement).
            secs = [t.scheduling_seconds for t in base_traces.values()]
            crit = [t.critical_path_seconds for t in base_traces.values()]
            walls = [t.scheduling_wall_seconds for t in base_traces.values()]
            compute[engine] = (
                sum(secs) if all(s is not None for s in secs) else None
            )
            critical[engine] = (
                sum(crit) if all(s is not None for s in crit) else None
            )
            wall[engine] = (
                sum(walls) if all(s is not None for s in walls) else None
            )
            for point in points:
                trace = base_traces[point.offered_rate]
                epochs = max(trace.n_epochs_run, 1)
                stable = "yes" if point.stable else "NO"
                if point.confirm_seeds > 1:
                    stable += f" ({point.confirm_seeds}-seed)"
                table.add_row(
                    grid,
                    engine,
                    f"{point.offered_rate:g}",
                    f"{point.throughput:.3f}",
                    f"{point.mean_delay:.1f}",
                    f"{point.overhead_slots:.1f}",
                    _secs(trace.scheduling_seconds),
                    _secs(trace.critical_path_seconds),
                    _secs(trace.scheduling_wall_seconds),
                    "-",
                    f"{trace.reconciled_total / epochs:.1f}",
                    stable,
                )
        for engine in ("monolithic", "sharded"):
            knee = knees[engine]
            table.add_row(
                grid,
                engine,
                "knee",
                "-",
                "-",
                "-",
                _secs(compute[engine]),
                _secs(critical[engine]),
                _secs(wall[engine]),
                "-",
                "-",
                "-" if knee is None else f"{knee:g}",
            )

        def speedup(totals: dict[str, float | None]) -> str:
            if totals["monolithic"] is None or totals["sharded"] is None:
                return "~"
            return f"{totals['monolithic'] / max(totals['sharded'], 1e-9):.2f}x"

        table.add_row(
            grid,
            "speedup",
            "-",
            "-",
            "-",
            "-",
            speedup(compute),
            speedup(critical),
            "-",
            speedup(wall),
            "-",
            "-",
        )

        # Executor equivalence: re-run one operating point on the thread
        # backend and require a record-identical trace.  The process pool
        # must be an implementation detail of *where* schedulers run, never
        # of *what* they produce.
        check_rate = lambdas[0]
        cross = run_sharded(check_rate, executor="thread")
        base = kept["sharded"][check_rate]
        if cross.records != base.records:
            raise AssertionError(
                f"sharded engine diverged across executors on {grid} at "
                f"lambda={check_rate:g}: 'thread' != {SHARDED_EXECUTOR!r}"
            )
    finish_obs(obs)
    return table
