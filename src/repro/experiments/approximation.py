"""Approximation-ratio measurement (validating Theorem 4's bound).

Theorem 4 bounds ``T_FDD / T_opt`` asymptotically; on instances small enough
for exact optimization we can *measure* the ratio.  FDD equals
GreedyPhysical (Theorem 4, asserted elsewhere), so the measured quantity is
``greedy_physical length / optimal length``, swept over small planned and
unplanned instances, against the theorem's closed-form bound for the same n.
"""

from __future__ import annotations

from repro.analysis.bounds import approximation_bound
from repro.analysis.stats import mean_ci
from repro.analysis.tables import TextTable
from repro.experiments.common import ExperimentProfile
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    random_gateways,
    uniform_node_demand,
)
from repro.scheduling import (
    forest_link_set,
    greedy_physical,
    optimal_schedule,
    verify_schedule,
)
from repro.topology.network import grid_network, uniform_network
from repro.util.rng import spawn


def _instance(kind: str, rep: int, seed: int):
    if kind == "grid":
        network = grid_network(4, 4, density_per_km2=800.0)
        gws = planned_gateways(4, 4, 1)
    else:
        network = uniform_network(
            12, density_per_km2=1200.0, rng=spawn(seed, "net", kind, rep)
        )
        gws = random_gateways(12, 1, spawn(seed, "gw", kind, rep))
    forest = build_routing_forest(
        network.comm_adj, gws, rng=spawn(seed, "forest", kind, rep)
    )
    demand = uniform_node_demand(
        network.n_nodes, spawn(seed, "demand", kind, rep), low=1, high=3, gateways=gws
    )
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return network, links


def approximation_experiment(profile: ExperimentProfile) -> TextTable:
    """T5 — measured greedy/optimal ratio vs the Theorem 4 bound."""
    table = TextTable(
        [
            "scenario",
            "instances",
            "measured ratio",
            "worst ratio",
            "Thm 4 bound (alpha=3)",
        ],
        title="Approximation ratio: GreedyPhysical(≡FDD) vs exact optimum "
        "(small instances)",
    )
    reps = max(3, profile.repetitions)
    for kind in ("grid", "uniform"):
        ratios: list[float] = []
        n_nodes = 16 if kind == "grid" else 12
        for rep in range(reps):
            network, links = _instance(kind, rep, profile.seed)
            optimum = optimal_schedule(links, network.model)
            greedy = greedy_physical(links, network.model)
            assert verify_schedule(optimum.schedule, network.model).ok
            assert greedy.length >= optimum.schedule.length
            ratios.append(greedy.length / optimum.schedule.length)
        table.add_row(
            kind,
            reps,
            str(mean_ci(ratios)),
            f"{max(ratios):.3f}",
            f"{approximation_bound(n_nodes, alpha=3.0):.1f}",
        )
    return table
