"""Mesh topologies: deployments, communication/sensitivity graphs, diameter.

Provides the two deployment families of the paper's evaluation (planned
square grids with homogeneous power, unplanned uniform-random placements with
heterogeneous power), the graphs derived from the physical layer, and the
interference-diameter machinery of Section IV-B.
"""

from repro.topology.regions import SquareRegion, side_for_density
from repro.topology.deployment import (
    grid_positions,
    uniform_positions,
    line_positions,
)
from repro.topology.network import Network, grid_network, uniform_network
from repro.topology.commgraph import communication_adjacency
from repro.topology.sensitivity import sensitivity_adjacency
from repro.topology.diameter import (
    hop_distance_matrix,
    interference_diameter,
    neighbor_density,
)
from repro.topology.lattice import (
    LatticeCell,
    segment_augmentation,
    lattice_paths,
    lattice_path_hop_length,
    is_square_grid_convex,
)

__all__ = [
    "SquareRegion",
    "side_for_density",
    "grid_positions",
    "uniform_positions",
    "line_positions",
    "Network",
    "grid_network",
    "uniform_network",
    "communication_adjacency",
    "sensitivity_adjacency",
    "hop_distance_matrix",
    "interference_diameter",
    "neighbor_density",
    "LatticeCell",
    "segment_augmentation",
    "lattice_paths",
    "lattice_path_hop_length",
    "is_square_grid_convex",
]
