"""Gateway routing substrate: reverse trees, routing forest, demand aggregation.

Traffic in the paper's mesh flows from every node to its nearest gateway
along reverse shortest-path trees (Section II).  This subpackage builds the
routing forest and aggregates per-node demands onto tree links, producing the
link/demand sets the schedulers operate on.
"""

from repro.routing.gateways import (
    planned_gateways,
    random_gateways,
)
from repro.routing.forest import RoutingForest, build_routing_forest
from repro.routing.demand import uniform_node_demand, aggregate_demand

__all__ = [
    "planned_gateways",
    "random_gateways",
    "RoutingForest",
    "build_routing_forest",
    "uniform_node_demand",
    "aggregate_demand",
]
