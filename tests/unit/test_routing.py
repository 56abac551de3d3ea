"""Routing substrate: gateways, forest construction, demand aggregation."""

import numpy as np
import pytest

from repro.routing.demand import aggregate_demand, uniform_node_demand
from repro.routing.forest import RoutingForest, build_routing_forest
from repro.routing.gateways import planned_gateways, random_gateways
from repro.topology.diameter import hop_distance_matrix


def route(forest, source):
    """The node sequence from ``source`` up its parents to its gateway."""
    path = [source]
    while forest.parent[path[-1]] >= 0:
        path.append(int(forest.parent[path[-1]]))
    return path


class TestGateways:
    def test_planned_gateways_for_paper_grid(self):
        gws = planned_gateways(8, 8, 4)
        assert gws.tolist() == [2 * 8 + 2, 2 * 8 + 5, 5 * 8 + 2, 5 * 8 + 5]

    def test_planned_single_gateway_is_center(self):
        gws = planned_gateways(5, 5, 1)
        assert gws.tolist() == [2 * 5 + 2]

    def test_random_gateways_distinct_and_in_range(self):
        gws = random_gateways(20, 4, np.random.default_rng(0))
        assert len(set(gws.tolist())) == 4
        assert (gws >= 0).all() and (gws < 20).all()

    def test_too_many_gateways_rejected(self):
        with pytest.raises(ValueError):
            random_gateways(3, 4, np.random.default_rng(0))


class TestForest:
    def test_forest_structure(self, grid16):
        gws = planned_gateways(4, 4, 2)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=1)
        forest.validate(grid16.comm_adj)
        assert forest.n_nodes == 16
        assert (forest.parent[gws] == -1).all()

    def test_depths_are_hop_distances(self, grid16):
        gws = planned_gateways(4, 4, 1)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=2)
        dist = hop_distance_matrix(grid16.comm_adj)[:, gws[0]]
        assert np.array_equal(forest.depth, dist.astype(int))

    def test_routes_end_at_gateways(self, grid16):
        gws = planned_gateways(4, 4, 2)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=3)
        for v in range(16):
            path = route(forest, v)
            assert path[-1] in set(gws.tolist())
            assert len(path) == forest.depth[v] + 1

    def test_tie_breaks_depend_on_rng(self, grid64):
        from repro.routing import planned_gateways as pg

        gws = pg(8, 8, 4)
        a = build_routing_forest(grid64.comm_adj, gws, rng=1)
        b = build_routing_forest(grid64.comm_adj, gws, rng=2)
        assert np.array_equal(a.depth, b.depth)  # depths are unique
        assert not np.array_equal(a.parent, b.parent)  # parents are not

    def test_unreachable_node_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        with pytest.raises(ValueError, match="cannot reach"):
            build_routing_forest(adj, np.array([0]), rng=0)

    def test_duplicate_gateways_rejected(self, grid16):
        with pytest.raises(ValueError):
            build_routing_forest(grid16.comm_adj, np.array([0, 0]), rng=0)


class TestDemand:
    def test_uniform_demand_range_and_gateways(self):
        rng = np.random.default_rng(1)
        gws = np.array([0, 5])
        demand = uniform_node_demand(10, rng, low=1, high=10, gateways=gws)
        assert (demand[gws] == 0).all()
        others = np.delete(demand, gws)
        assert (others >= 1).all() and (others <= 10).all()

    def test_aggregation_conserves_demand(self, grid16):
        """Demand entering the gateways equals demand generated."""
        gws = planned_gateways(4, 4, 2)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=6)
        demand = uniform_node_demand(
            16, np.random.default_rng(2), gateways=gws
        )
        link_demand = aggregate_demand(forest, demand)
        gateway_children = [
            v for v in range(16) if forest.parent[v] in set(gws.tolist())
        ]
        assert sum(link_demand[v] for v in gateway_children) == demand.sum()

    def test_aggregation_equals_route_sum(self, grid16):
        """Link demand == sum of demands whose route crosses the link."""
        gws = planned_gateways(4, 4, 2)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=7)
        demand = uniform_node_demand(16, np.random.default_rng(3), gateways=gws)
        link_demand = aggregate_demand(forest, demand)
        manual = np.zeros(16, dtype=int)
        for v in range(16):
            for hop in route(forest, v)[:-1]:
                manual[hop] += demand[v]
        assert np.array_equal(link_demand, manual)

    def test_gateway_demand_rejected(self, grid16):
        gws = planned_gateways(4, 4, 1)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=8)
        demand = np.ones(16, dtype=int)
        with pytest.raises(ValueError, match="gateways"):
            aggregate_demand(forest, demand)
