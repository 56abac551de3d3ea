"""Sharded multi-region scheduling: a federated 16x16 mesh backbone.

The paper simulates one 64-node region; a real mesh backbone is many
regions, each computing its schedule locally.  This example partitions a
16x16 grid (256 nodes, 4 gateways) into 2x2 spatial shards and runs the
closed traffic loop both ways:

* **monolithic** — one FDD instance spans the backbone, so the protocol
  must elect over the full ID space with K covering the backbone's
  interference diameter, and every epoch pays that air time;
* **sharded** — each region runs its own FDD on its own radio substrate
  (regional K and ID bits), boundary links carry a guard-margin
  interference budget, and a reconciliation pass serializes the residual
  cross-shard violations (DESIGN.md §8).

The example asserts the subsystem's two headlines:

1. the 1-shard partition reproduces the monolithic engine exactly
   (the differential harness, here on live FDD);
2. sharding cuts the critical-path scheduling wall-clock — what the epoch
   costs when every region has its own controller — by >= 2x at a stable
   operating point, while paying an order of magnitude less protocol air
   time.

Run:  python examples/sharded_mesh.py        (~1 minute)
"""

import numpy as np

from repro import (
    EpochConfig,
    PoissonArrivals,
    ProtocolConfig,
    build_routing_forest,
    distributed_scheduler,
    fdd_on_network,
    forest_link_set,
    grid_network,
    plan_for_network,
    planned_gateways,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
)
from repro.traffic import is_stable
from repro.util.rng import spawn

SEED = 20080617
RATE = 0.002  # pkt/node/slot — stable for both engines on this grid


def build_mesh():
    network = grid_network(16, 16, density_per_km2=1000.0)
    gateways = planned_gateways(16, 16, 4)
    forest = build_routing_forest(
        network.comm_adj, gateways, rng=spawn(SEED, "forest")
    )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


def main() -> None:
    network, gateways, links = build_mesh()
    protocol = ProtocolConfig(k=5, smbytes=15, id_bits=8)
    config = EpochConfig(epoch_slots=300, n_epochs=8, divergence_factor=4.0)

    def generator():
        return PoissonArrivals(
            network.n_nodes, RATE, gateways=gateways, seed=spawn(SEED, "gen")
        )

    print(f"16x16 backbone, {links.n_links} links, lambda={RATE} pkt/node/slot")

    # --- monolithic: one backbone-wide FDD per epoch
    scheduler = distributed_scheduler(
        network, fdd_on_network, config=protocol, seed=spawn(SEED, "fdd")
    )
    mono = run_epochs(links, generator(), scheduler, config)
    # Timing fields are None on hosts without a thread-CPU clock.
    secs = lambda s: "~" if s is None else f"{s:.2f}"  # noqa: E731
    print(
        f"monolithic: {mono.summary()}\n"
        f"  overhead {mono.overhead_slots_total / mono.n_epochs_run:.1f} slots/epoch, "
        f"scheduling compute {secs(mono.scheduling_seconds)} s, "
        f"stable={is_stable(mono)}"
    )

    # --- sharded: 2x2 regions, guard margins, reconciliation
    plan = plan_for_network(links, network, n_shards=4, interference_radius_m=80.0)
    print(f"\n{plan.summary()}")
    factory = sharded_distributed_factory(
        network, fdd_on_network, config=protocol, seed=spawn(SEED, "fdd")
    )
    shard = run_epochs_sharded(
        plan,
        generator(),
        factory,
        network.model,
        config,
    )
    print(
        f"sharded:    {shard.summary()}\n"
        f"  overhead {shard.overhead_slots_total / shard.n_epochs_run:.1f} slots/epoch, "
        f"compute {secs(shard.scheduling_seconds)} s "
        f"(critical path {secs(shard.critical_path_seconds)} s, "
        f"wall {secs(shard.scheduling_wall_seconds)} s, shards one after another), "
        f"reconciled {shard.reconciled_total / shard.n_epochs_run:.1f} links/epoch, "
        f"stable={is_stable(shard)}"
    )

    # 1. Differential harness: the 1-shard partition IS the monolithic loop.
    plan1 = plan_for_network(links, network, n_shards=1, interference_radius_m=80.0)
    factory1 = sharded_distributed_factory(
        network, fdd_on_network, config=protocol, seed=spawn(SEED, "fdd")
    )
    replay = run_epochs_sharded(plan1, generator(), factory1, network.model, config)
    assert [
        (r.arrivals, r.served, r.delivered, r.backlog_end, r.overhead_slots)
        for r in replay.records
    ] == [
        (r.arrivals, r.served, r.delivered, r.backlog_end, r.overhead_slots)
        for r in mono.records
    ], "1-shard engine diverged from the monolithic loop"
    print("\n1-shard partition replays the monolithic engine epoch-for-epoch: OK")

    # 2. The economics (timing claims need the thread-CPU clock).
    air_cut = mono.overhead_slots_total / max(shard.overhead_slots_total, 1)
    if mono.scheduling_seconds is not None and shard.scheduling_seconds is not None:
        crit_speedup = mono.scheduling_seconds / shard.critical_path_seconds
        print(
            f"\ncritical-path scheduling speedup: {crit_speedup:.1f}x "
            f"(serial compute ratio "
            f"{mono.scheduling_seconds / shard.scheduling_seconds:.2f}x)\n"
            f"protocol air time cut: {air_cut:.1f}x "
            f"({mono.overhead_slots_total} -> {shard.overhead_slots_total} slots)"
        )
        assert crit_speedup >= 2.0, "sharding should cut the critical path >= 2x"
    else:
        print(
            f"\nno thread-CPU clock on this host — timing claims skipped\n"
            f"protocol air time cut: {air_cut:.1f}x "
            f"({mono.overhead_slots_total} -> {shard.overhead_slots_total} slots)"
        )
    assert is_stable(shard) == is_stable(mono), "engines disagree on stability"


if __name__ == "__main__":
    main()
