"""Shared fixtures: small deterministic networks and link sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.runtime import Runtime
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    uniform_node_demand,
)
from repro.scheduling.links import LinkSet, forest_link_set
from repro.topology.network import Network, grid_network, uniform_network
from repro.util.rng import spawn


@pytest.fixture(scope="session")
def grid16() -> Network:
    """A 4x4 planned grid at moderate density (deterministic)."""
    return grid_network(4, 4, density_per_km2=2000)


@pytest.fixture(scope="session")
def grid64() -> Network:
    """The paper's 8x8 planned grid at 2500 nodes/km^2."""
    return grid_network(8, 8, density_per_km2=2500)


@pytest.fixture(scope="session")
def uniform32() -> Network:
    """A 32-node unplanned network (connected by construction)."""
    return uniform_network(32, density_per_km2=3000, rng=101)


def make_links(network: Network, n_gateways: int, seed: int, demand_high: int = 3):
    """Forest link set with small demands on a given network."""
    side = int(round(np.sqrt(network.n_nodes)))
    if side * side == network.n_nodes:
        gws = planned_gateways(side, side, n_gateways)
    else:
        from repro.routing import random_gateways

        gws = random_gateways(network.n_nodes, n_gateways, spawn(seed, "gw"))
    forest = build_routing_forest(network.comm_adj, gws, rng=spawn(seed, "forest"))
    demand = uniform_node_demand(
        network.n_nodes, spawn(seed, "demand"), low=1, high=demand_high, gateways=gws
    )
    return forest, forest_link_set(forest, aggregate_demand(forest, demand))


@pytest.fixture(scope="session")
def grid16_links(grid16) -> LinkSet:
    return make_links(grid16, 1, seed=5)[1]


@pytest.fixture(scope="session")
def grid64_links(grid64) -> LinkSet:
    return make_links(grid64, 4, seed=7, demand_high=10)[1]


@pytest.fixture(scope="session")
def small_config() -> ProtocolConfig:
    """Protocol constants sized for 16-node tests."""
    return ProtocolConfig(k=5, id_bits=5)


@pytest.fixture(scope="session")
def paper_config() -> ProtocolConfig:
    """The paper's constants (Section VI-A)."""
    return ProtocolConfig(k=5, smbytes=15, id_bits=8)


class StepwiseRuntime(FastRuntime):
    """FastRuntime's primitives under the :class:`Runtime` round defaults.

    The reference the batched ``resolve_trials`` / closed-form ``elect_each``
    are differenced against: one construction step at a time, in paper
    order, on the same vectorized scream / leader_elect / handshake.
    """

    elect_each = Runtime.elect_each
    resolve_trials = Runtime.resolve_trials

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches_trials = False
