"""Traffic demand generation and aggregation (Section II / VI-A).

Each node generates an integer demand (the paper draws it uniformly from
[1, 10]); the aggregated demand of a tree link equals the sum of the demands
generated in the subtree below it — equivalently, each node's demand is
counted on every link of its route to the gateway.
"""

from __future__ import annotations

import numpy as np

from repro.routing.forest import RoutingForest
from repro.util.validation import check_integer_in_range


#: The least demand a node generates (the paper's U[1, 10] draw).
MIN_NODE_DEMAND = 1


def uniform_node_demand(
    n_nodes: int,
    rng: np.random.Generator,
    high: int = 10,
    gateways: np.ndarray | None = None,
) -> np.ndarray:
    """Per-node integer demands ~ U[MIN_NODE_DEMAND, high]; gateways
    generate none."""
    check_integer_in_range("high", high, minimum=MIN_NODE_DEMAND)
    demand = rng.integers(MIN_NODE_DEMAND, high + 1, size=n_nodes).astype(np.int64)
    if gateways is not None:
        demand[np.asarray(gateways, dtype=np.intp)] = 0
    return demand


def aggregate_demand(forest: RoutingForest, node_demand: np.ndarray) -> np.ndarray:
    """Aggregated demand per *link*, indexed by the link's head node.

    Returns an ``(n,)`` array where entry ``v`` is the demand on the tree
    edge ``(v, parent(v))`` — the total demand generated in the subtree
    rooted at ``v`` — and 0 for gateways (which own no edge).

    The computation processes nodes bottom-up (decreasing depth), so it runs
    in O(n) regardless of tree shape.
    """
    demand = np.asarray(node_demand, dtype=np.int64)
    if demand.shape != (forest.n_nodes,):
        raise ValueError(
            f"node_demand must have shape ({forest.n_nodes},), got {demand.shape}"
        )
    if np.any(demand < 0):
        raise ValueError("node demands must be non-negative")
    if np.any(demand[forest.gateways] != 0):
        raise ValueError("gateways must not generate demand")

    aggregated = demand.copy()
    for v in np.argsort(forest.depth)[::-1]:
        p = forest.parent[v]
        if p >= 0:
            aggregated[p] += aggregated[v]
    link_demand = aggregated.copy()
    link_demand[forest.gateways] = 0
    return link_demand
