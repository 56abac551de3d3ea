"""Watching the protocol run node by node on the packet-level engine.

Everything in the experiments uses the vectorized runtime; this example
demonstrates the ground truth it is validated against — per-node generator
programs whose only world access is "transmit or listen, once per slot" —
and shows both substrates produce bit-identical protocol executions.

Run:  python examples/packet_level_validation.py
"""

import time

import numpy as np

from repro import (
    FastRuntime,
    PacketRuntime,
    ProtocolConfig,
    aggregate_demand,
    build_routing_forest,
    forest_link_set,
    planned_gateways,
    uniform_node_demand,
)
from repro.core.fdd import run_fdd
from repro.simulation import Medium, SyncEngine, scream_program
from repro.topology import grid_network
from repro.util.rng import spawn


def make_demo_links(network):
    """A small forest link set on the demo grid."""
    gws = planned_gateways(4, 4, 1)
    forest = build_routing_forest(network.comm_adj, gws, rng=spawn(5, "forest"))
    demand = uniform_node_demand(
        network.n_nodes, spawn(5, "demand"), high=3, gateways=gws
    )
    return forest_link_set(forest, aggregate_demand(forest, demand))


def scream_demo(network) -> None:
    """One SCREAM, observed slot by slot from node programs."""
    k = int(network.interference_diameter()) + 1
    medium = Medium(network.model)
    engine = SyncEngine(medium)
    source = 0
    programs = [
        scream_program(i, i == source, k) for i in range(network.n_nodes)
    ]
    results = engine.run(programs)
    print(
        f"SCREAM from node {source}: {sum(results)}/{network.n_nodes} nodes "
        f"heard it within K={k} slots ({medium.slots_resolved} medium slots)"
    )


def main() -> None:
    network = grid_network(4, 4, density_per_km2=2000.0)
    scream_demo(network)

    links = make_demo_links(network)
    config = ProtocolConfig(k=5, id_bits=5)

    t0 = time.perf_counter()
    fast = run_fdd(links, FastRuntime.for_network(network, config), config, rng=9)
    t_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    packet = run_fdd(links, PacketRuntime.for_network(network, config), config, rng=9)
    t_packet = time.perf_counter() - t0

    identical = fast.schedule_length == packet.schedule_length and all(
        sorted(a.links) == sorted(b.links)
        for a, b in zip(fast.schedule.slots, packet.schedule.slots)
    )
    print(f"fast runtime:   T={fast.schedule_length} in {t_fast*1e3:7.1f} ms")
    print(f"packet engine:  T={packet.schedule_length} in {t_packet*1e3:7.1f} ms")
    print(f"schedules identical: {identical}")
    print(f"step tallies identical: {fast.tally.as_dict() == packet.tally.as_dict()}")


if __name__ == "__main__":
    main()
