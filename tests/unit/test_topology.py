"""Topology substrate: regions, deployments, graphs, diameter, Network."""

import numpy as np
import pytest

from repro.topology.commgraph import communication_adjacency, is_connected
from repro.topology.deployment import grid_positions, line_positions, uniform_positions
from repro.topology.diameter import (
    hop_distance_matrix,
    interference_diameter,
    neighbor_density,
)
from repro.topology.network import grid_network, uniform_network
from repro.topology.regions import SquareRegion, side_for_density
from repro.topology.sensitivity import sensitivity_adjacency, supergraph_check


class TestRegions:
    def test_side_for_density(self):
        # 64 nodes at 2500/km^2 cover 0.0256 km^2: a 160 m square.
        assert side_for_density(64, 2500.0) == pytest.approx(160.0)

    def test_diameter_is_diagonal(self):
        region = SquareRegion(side=100.0)
        assert region.diameter == pytest.approx(100.0 * np.sqrt(2))


class TestDeployments:
    def test_grid_positions_count_and_extent(self):
        region = SquareRegion(side=70.0)
        pos = grid_positions(8, 8, region)
        assert pos.shape == (64, 2)
        assert pos.min() == 0.0
        assert pos.max() == pytest.approx(70.0)

    def test_grid_row_major_order(self):
        region = SquareRegion(side=10.0)
        pos = grid_positions(2, 3, region)
        # First row varies x, fixed y=0.
        assert np.allclose(pos[:3, 1], 0.0)
        assert pos[1, 0] > pos[0, 0]

    def test_uniform_positions_inside_region(self):
        region = SquareRegion(side=50.0)
        pos = uniform_positions(200, region, np.random.default_rng(1))
        assert ((pos >= 0.0) & (pos <= region.side)).all()

    def test_line_positions_spacing(self):
        pos = line_positions(5, 7.0)
        assert np.allclose(np.diff(pos[:, 0]), 7.0)
        assert np.allclose(pos[:, 1], 0.0)


class TestGraphs:
    def test_communication_adjacency_symmetric_no_diagonal(self, grid16):
        adj = grid16.comm_adj
        assert (adj == adj.T).all()
        assert not np.diagonal(adj).any()

    def test_asymmetric_powers_drop_unidirectional_links(self):
        # Two nodes: one strong, one very weak -> no bidirectional link.
        power = np.array([[1.0, 1e-7], [1e-11, 1.0]])
        adj = communication_adjacency(power, noise_mw=1e-9, beta=10.0)
        assert not adj[0, 1] and not adj[1, 0]

    def test_connectivity_detection(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        assert not is_connected(adj)
        adj[1, 2] = adj[2, 1] = True
        assert is_connected(adj)

    def test_sensitivity_supergraph_of_communication(self, grid16):
        assert supergraph_check(grid16.comm_adj, grid16.sens_adj)

    def test_sensitivity_threshold_monotone(self, grid16):
        loose = sensitivity_adjacency(grid16.power, 1e-12)
        tight = sensitivity_adjacency(grid16.power, 1e-6)
        assert (loose | tight == loose).all()  # tight ⊆ loose


class TestDiameter:
    def test_path_graph_distances(self):
        adj = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = True
        dist = hop_distance_matrix(adj)
        assert dist[0, 3] == 3
        assert interference_diameter(adj) == 3

    def test_directed_asymmetry(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True  # directed 3-cycle
        dist = hop_distance_matrix(adj)
        assert dist[0, 2] == 2
        assert dist[2, 0] == 1

    def test_disconnected_is_infinite(self):
        adj = np.zeros((2, 2), dtype=bool)
        assert interference_diameter(adj) == float("inf")

    def test_neighbor_density_is_average_degree(self):
        adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=bool)
        assert neighbor_density(adj) == pytest.approx(4 / 3)


class TestNetwork:
    def test_grid_network_validates(self, grid16):
        grid16.validate()

    def test_uniform_network_connected(self, uniform32):
        assert uniform32.is_connected()
        uniform32.validate()

    def test_power_matrix_shape(self, grid16):
        assert grid16.power.shape == (16, 16)

    def test_uniform_network_deterministic_given_seed(self):
        a = uniform_network(16, density_per_km2=3000, rng=7)
        b = uniform_network(16, density_per_km2=3000, rng=7)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.tx_power_mw, b.tx_power_mw)

    def test_mismatched_power_vector_rejected(self, grid16):
        from repro.topology.network import Network

        with pytest.raises(ValueError):
            Network(
                grid16.positions,
                grid16.tx_power_mw[:-1],
                grid16.radio,
                grid16.propagation,
                grid16.region,
            )

    def test_impossible_uniform_density_raises(self):
        with pytest.raises(RuntimeError):
            uniform_network(64, density_per_km2=5.0, rng=1, max_retries=3)
