"""Quickstart: schedule a small mesh with FDD and inspect the result.

Builds the paper's planned scenario at reduced scale (a 6x6 grid with four
gateways), aggregates random demands along the routing forest, runs the FDD
distributed scheduler, verifies the schedule under the physical interference
model, and compares against the centralized baseline and the serialized
worst case.

Run:  python examples/quickstart.py
"""

from repro import (
    ProtocolConfig,
    TimingModel,
    aggregate_demand,
    build_routing_forest,
    fdd_on_network,
    forest_link_set,
    greedy_physical,
    grid_network,
    improvement_over_linear,
    planned_gateways,
    uniform_node_demand,
    verify_schedule,
)
from repro.util.rng import spawn

SEED = 42


def main() -> None:
    # 1. Deploy: a 6x6 planned grid at 1200 nodes/km^2 (~173 m on a side).
    network = grid_network(6, 6, density_per_km2=1200.0)
    print(f"network: {network.n_nodes} nodes, region {network.region.side:.0f} m")
    print(f"  communication graph degree: {network.neighbor_density():.1f}")
    print(f"  interference diameter ID(GS): {network.interference_diameter():.0f}")
    # The paper's assumptions: G connected, GS a super-graph of G, ID(GS) finite.
    network.validate()

    # 2. Route: every node joins a shortest-path tree toward the gateway.
    gateways = planned_gateways(6, 6, count=4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(SEED, "f"))
    forest.validate(network.comm_adj)  # every tree edge is a communication edge

    # 3. Demand: U[1, 10] packets per node, aggregated on tree links.
    demand = uniform_node_demand(
        network.n_nodes, spawn(SEED, "d"), gateways=gateways
    )
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    print(f"  links to schedule: {links.n_links}, total demand TD={links.total_demand}")

    # 4. Schedule with the FDD distributed protocol (paper defaults: K=5,
    #    SMBytes=15) and verify under the exact SINR model.
    config = ProtocolConfig()
    result = fdd_on_network(network, links, config, rng=spawn(SEED, "p"))
    report = verify_schedule(result.schedule, network.model)
    assert result.schedule.satisfies_demand()
    print(f"\nFDD: {result.schedule.summary()}")
    print(f"  verification: {report}")
    print(f"  improvement over serialized: {improvement_over_linear(result.schedule):.1f}%")

    # 5. The distributed schedule equals the centralized GreedyPhysical
    #    baseline (Theorem 4) ...
    central = greedy_physical(links, network.model)
    assert central.length == result.schedule_length
    print(f"  == centralized GreedyPhysical length: {central.length} (Theorem 4)")

    # 6. ... and we know what it costs on air.
    timing = TimingModel(scream_bytes=config.smbytes)
    print(f"  distributed computation time: {timing.execution_time(result.tally):.3f} s")
    print(f"  steps: {result.tally}")


if __name__ == "__main__":
    main()
