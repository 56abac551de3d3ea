"""Heavy traffic: stability regions under epoch-based online rescheduling.

The static pipeline schedules one demand snapshot; this example closes the
loop.  Poisson flows arrive at every mesh node slot after slot, packets
queue per link along the routing forest, and every epoch (T data slots) the
scheduler is re-run on the live backlogs — with the FDD distributed
protocol paying its measured air-time overhead in slots, while the
centralized GreedyPhysical oracle computes for free.

Sweeping the arrival rate lambda locates each scheduler's stability knee —
the highest rate at which backlogs stay bounded:

* Serialized (TDMA round-robin): no spatial reuse, knee lowest;
* FDD: spatial reuse minus protocol overhead — knee strictly above
  serialized on the 8x8 grid (the claim this example asserts);
* GreedyPhysical: the free-oracle upper bound.

A second, lighter sweep on an unplanned uniform topology shows the same
ordering holds off the planned grid, and a bursty Pareto on-off workload
shows what burstiness costs at equal mean rate: far heavier delay tails
near the knee.

Finally, the incremental-rescheduling layer (DESIGN.md §7): re-running FDD
every epoch pays its protocol overhead T times for near-identical demand
vectors.  With ``reschedule_policy="patch"`` the epoch loop reuses the
cached schedule while backlogs drift little and locally repairs it when
they don't, recomputing only as a last resort — the example measures the
amortization (an order of magnitude fewer overhead slots at the same
operating point, stability intact).

Run:  python examples/heavy_traffic.py        (~2-3 minutes; FDD dominates)
"""

from dataclasses import replace

from repro import (
    EpochConfig,
    ParetoOnOff,
    PoissonArrivals,
    aggregate_demand,
    build_routing_forest,
    centralized_scheduler,
    distributed_scheduler,
    fdd_on_network,
    forest_link_set,
    grid_network,
    planned_gateways,
    random_gateways,
    run_epochs,
    serialized_scheduler,
    stability_knee,
    stability_sweep,
    uniform_network,
    uniform_node_demand,
)
from repro.analysis.tables import TextTable
from repro.util.rng import spawn

SEED = 20080617
LAMBDAS = (0.006, 0.0145, 0.019)


def build_mesh(kind: str):
    """A deployed network, its gateways, and the forest link set to queue on."""
    if kind == "grid":
        network = grid_network(8, 8, density_per_km2=1000.0)
        gateways = planned_gateways(8, 8, 4)
    else:
        network = uniform_network(32, density_per_km2=1500.0, rng=spawn(SEED, "net"))
        gateways = random_gateways(32, 2, spawn(SEED, "gw"))
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(SEED, kind))
    demand = uniform_node_demand(
        network.n_nodes, spawn(SEED, kind, "d"), gateways=gateways
    )
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return network, gateways, links


def arrival_seed(label: str, seed_index: int):
    """Sample path ``seed_index`` of the ``label`` arrivals; path 0 keeps
    the bare label, as the experiments' generators do."""
    return spawn(SEED, label, seed_index) if seed_index else spawn(SEED, label)


def sweep(network, gateways, links, schedulers, config, make_generator):
    """Stability sweep for every scheduler; returns {name: (points, knee)}.

    ``make_generator(rate, seed_index)`` builds the arrivals: seed index 0
    is the sample path every scheduler faces, and the sweep re-runs a
    borderline point on indices 1, 2 to take the majority verdict.
    """
    results = {}
    for name, scheduler in schedulers:

        def run_at(rate, seed_index, scheduler=scheduler):
            generator = make_generator(rate, seed_index)
            return run_epochs(links, generator, scheduler, config)

        points = stability_sweep(LAMBDAS, run_at)
        results[name] = (points, stability_knee(points))
    return results


def render(title: str, results) -> None:
    table = TextTable(
        [
            "scheduler",
            "lambda",
            "throughput (pkt/slot)",
            "mean delay",
            "p99 delay",
            "backlog growth/epoch",
            "stable",
        ],
        title=title,
    )
    for name, (points, _) in results.items():
        for p in points:
            table.add_row(
                name,
                f"{p.offered_rate:g}",
                f"{p.throughput:.3f}",
                f"{p.mean_delay:.1f}",
                f"{p.p99_delay:.0f}",
                f"{p.backlog_slope:+.1f}",
                "yes" if p.stable else "NO",
            )
    print(table.render())
    for name, (_, knee) in results.items():
        print(f"  {name} stability knee: lambda = {knee}")
    print()


def main() -> None:
    # ---- The paper's 8x8 planned grid, Poisson flows, all three schedulers.
    network, gateways, links = build_mesh("grid")
    config = EpochConfig(epoch_slots=300, n_epochs=10, divergence_factor=4.0)
    schedulers = [
        ("Serialized", serialized_scheduler()),
        ("GreedyPhysical", centralized_scheduler(network.model)),
        ("FDD", distributed_scheduler(network, fdd_on_network, seed=spawn(SEED, "fdd"))),
    ]

    def poisson(rate, seed_index=0):
        return PoissonArrivals(
            network.n_nodes,
            rate,
            gateways=gateways,
            seed=arrival_seed("poisson", seed_index),
        )

    grid_results = sweep(network, gateways, links, schedulers, config, poisson)
    render(
        "Stability regions — 8x8 planned grid, Poisson arrivals, "
        "T=300 slots/epoch, online rescheduling",
        grid_results,
    )

    knee_linear = grid_results["Serialized"][1]
    knee_fdd = grid_results["FDD"][1]
    assert knee_fdd is not None and knee_linear is not None
    assert knee_fdd > knee_linear, (
        f"expected FDD's knee ({knee_fdd}) above the serialized baseline's "
        f"({knee_linear}) on the 8x8 grid"
    )
    print(
        f"==> FDD sustains lambda={knee_fdd:g} vs serialized {knee_linear:g} "
        "on the grid: spatial reuse beats its protocol overhead.\n"
    )

    # ---- Incremental rescheduling: amortize FDD's protocol overhead by
    # reusing (and patching) cached schedules across low-drift epochs.
    reuse_rate = 0.0145  # stable for FDD on this grid under every policy
    print(
        "Incremental rescheduling — FDD at lambda="
        f"{reuse_rate:g}, policies vs overhead:"
    )
    overheads = {}
    for policy in ("always", "drift-threshold", "patch"):
        scheduler = distributed_scheduler(
            network, fdd_on_network, seed=spawn(SEED, "fdd")
        )
        trace = run_epochs(
            links,
            poisson(reuse_rate),
            scheduler,
            replace(config, reschedule_policy=policy),
            model=network.model,
        )
        overheads[policy] = trace.overhead_slots_total
        print(
            f"  {policy:<16} overhead={trace.overhead_slots_total:4d} slots, "
            f"cache hits={trace.cache_hits}, patched={trace.patched_epochs}, "
            f"delivered={trace.delivered_total}"
        )
    assert overheads["patch"] * 3 <= overheads["always"], (
        f"patching should amortize >= 3x: paid {overheads['patch']} vs "
        f"always {overheads['always']} overhead slots"
    )
    print(
        f"==> caching with patching pays {overheads['patch']} overhead slots "
        f"where re-running every epoch pays {overheads['always']} — "
        f"{overheads['always'] / max(overheads['patch'], 1):.0f}x cheaper.\n"
    )

    # ---- Same sweep, bursty heavy-tailed sources: at equal mean rate,
    # burstiness shows up in the delay tail near the knee.
    def bursty(rate, seed_index):
        return ParetoOnOff(
            network.n_nodes,
            rate,
            gateways=gateways,
            seed=arrival_seed("pareto", seed_index),
        )

    bursty_results = sweep(
        network,
        gateways,
        links,
        [("GreedyPhysical", centralized_scheduler(network.model))],
        config,
        bursty,
    )
    render(
        "Workload sensitivity — same grid and scheduler, Pareto on-off bursts",
        bursty_results,
    )

    # ---- Unplanned uniform topology (lighter: centralized + serialized).
    network_u, gateways_u, links_u = build_mesh("uniform")
    uniform_results = sweep(
        network_u,
        gateways_u,
        links_u,
        [
            ("Serialized", serialized_scheduler()),
            ("GreedyPhysical", centralized_scheduler(network_u.model)),
        ],
        EpochConfig(epoch_slots=300, n_epochs=8, divergence_factor=4.0),
        lambda rate, seed_index: PoissonArrivals(
            network_u.n_nodes,
            rate,
            gateways=gateways_u,
            seed=arrival_seed("poisson-u", seed_index),
        ),
    )
    render(
        "Stability regions — 32-node unplanned uniform deployment, "
        "Poisson arrivals",
        uniform_results,
    )


if __name__ == "__main__":
    main()
