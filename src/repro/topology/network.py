"""The :class:`Network` container: one deployed mesh with its physical layer.

A ``Network`` bundles everything downstream code needs about a deployed mesh:
positions, per-node transmit powers, the received-power matrix, the physical
interference model, and the communication / sensitivity graphs.  Builders are
provided for the paper's two evaluation scenarios:

* :func:`grid_network` — planned placement, homogeneous power;
* :func:`uniform_network` — unplanned placement, heterogeneous power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss, PropagationModel
from repro.phy.radio import RadioConfig, heterogeneous_tx_power, uniform_tx_power
from repro.topology.commgraph import communication_adjacency, is_connected
from repro.topology.deployment import grid_positions, uniform_positions
from repro.topology.diameter import hop_distance_matrix, neighbor_density
from repro.topology.regions import SquareRegion
from repro.topology.sensitivity import sensitivity_adjacency, supergraph_check
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class Network:
    """A deployed wireless mesh with its derived physical-layer structures.

    Instances are immutable; derived matrices (hop distances, diameters) are
    computed lazily and cached.
    """

    positions: np.ndarray
    tx_power_mw: np.ndarray
    radio: RadioConfig
    propagation: PropagationModel
    region: SquareRegion

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        tx = np.asarray(self.tx_power_mw, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {pos.shape}")
        if tx.shape != (pos.shape[0],):
            raise ValueError(
                f"tx_power_mw must have shape ({pos.shape[0]},), got {tx.shape}"
            )
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "tx_power_mw", tx)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def power(self) -> np.ndarray:
        """Received-power matrix ``P[i, j]`` in mW."""
        return received_power_matrix(self.positions, self.tx_power_mw, self.propagation)

    @cached_property
    def model(self) -> PhysicalInterferenceModel:
        """The feasibility oracle bound to this network."""
        return PhysicalInterferenceModel(self.power, self.radio)

    @cached_property
    def comm_adj(self) -> np.ndarray:
        """Symmetric boolean adjacency of the communication graph ``G``."""
        return communication_adjacency(
            self.power, self.radio.noise_mw, self.radio.beta
        )

    @cached_property
    def sens_adj(self) -> np.ndarray:
        """Directed boolean adjacency of the sensitivity graph ``GS``."""
        return sensitivity_adjacency(self.power, self.radio.cs_threshold_mw)

    @cached_property
    def sens_hop_distance(self) -> np.ndarray:
        """All-pairs directed hop distances in the sensitivity graph."""
        return hop_distance_matrix(self.sens_adj)

    def interference_diameter(self) -> float:
        """``ID(GS)`` of this deployment (inf if GS is not strongly connected)."""
        dist = self.sens_hop_distance
        return float(dist.max()) if dist.size else 0.0

    def is_connected(self) -> bool:
        """Is the communication graph connected?"""
        return is_connected(self.comm_adj)

    def neighbor_density(self) -> float:
        """Average degree ``ρ(G)`` of the communication graph."""
        return neighbor_density(self.comm_adj)

    def validate(self) -> None:
        """Check the paper's structural assumptions; raise if violated.

        * the communication graph is connected;
        * the sensitivity graph is a super-graph of the communication graph;
        * the interference diameter is finite.
        """
        if not self.is_connected():
            raise ValueError("communication graph is not connected")
        if not supergraph_check(self.comm_adj, self.sens_adj):
            raise ValueError("sensitivity graph is not a super-graph of G")
        if not np.isfinite(self.interference_diameter()):
            raise ValueError("sensitivity graph is not strongly connected")


#: Draws :func:`uniform_network` makes before it gives up on a connected one.
MAX_DRAWS = 50


def grid_network(
    rows: int = 8, cols: int = 8, density_per_km2: float = 5000.0
) -> Network:
    """The planned scenario: ``rows x cols`` lattice, homogeneous power.

    The region is sized from the paper's density parameter (nodes/km²);
    the paper's radio (:class:`RadioConfig`, log-distance path loss, 12 dBm
    at every node) gives a ~54 m communication
    range, which covers the lattice step across the paper's density sweep
    (36 m at 1000 nodes/km² down to 7 m at 25000 nodes/km²) while keeping
    the graph genuinely multihop at the sparse end.
    """
    radio = RadioConfig()
    n = rows * cols
    region = SquareRegion.for_density(n, density_per_km2)
    positions = grid_positions(rows, cols, region)
    propagation = LogDistancePathLoss(alpha=radio.alpha)
    return Network(positions, uniform_tx_power(n), radio, propagation, region)


def uniform_network(
    n: int = 64,
    density_per_km2: float = 5000.0,
    rng: np.random.Generator | int | None = None,
) -> Network:
    """The unplanned scenario: uniform placement, heterogeneous power.

    Placement is resampled (deterministically, from the supplied generator)
    until the communication graph is connected, mirroring how simulation
    studies discard disconnected instances.
    """
    generator = ensure_rng(rng)
    radio = RadioConfig()
    propagation = LogDistancePathLoss(alpha=radio.alpha)
    region = SquareRegion.for_density(n, density_per_km2)
    for _ in range(MAX_DRAWS):
        positions = uniform_positions(n, region, generator)
        tx = heterogeneous_tx_power(n, generator)
        network = Network(positions, tx, radio, propagation, region)
        if network.is_connected():
            return network
    raise RuntimeError(
        f"could not draw a connected uniform network in {MAX_DRAWS} tries "
        f"(n={n}, density={density_per_km2}/km^2); the density is likely too "
        "low for the configured radio range"
    )
