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


def grid_network(
    rows: int = 8,
    cols: int = 8,
    density_per_km2: float = 5000.0,
    tx_power_dbm: float = 12.0,
    radio: RadioConfig | None = None,
    propagation: PropagationModel | None = None,
) -> Network:
    """The planned scenario: ``rows x cols`` lattice, homogeneous power.

    The region is sized from the paper's density parameter (nodes/km²);
    the default radio/propagation parameters give a ~54 m communication
    range, which covers the lattice step across the paper's density sweep
    (36 m at 1000 nodes/km² down to 7 m at 25000 nodes/km²) while keeping
    the graph genuinely multihop at the sparse end.
    """
    radio = radio or RadioConfig()
    propagation = propagation or LogDistancePathLoss(alpha=radio.alpha)
    n = rows * cols
    region = SquareRegion.for_density(n, density_per_km2)
    positions = grid_positions(rows, cols, region)
    tx = uniform_tx_power(n, tx_power_dbm)
    return Network(positions, tx, radio, propagation, region)


def uniform_network(
    n: int = 64,
    density_per_km2: float = 5000.0,
    rng: np.random.Generator | int | None = None,
    power_range_dbm: tuple[float, float] = (10.0, 14.0),
    radio: RadioConfig | None = None,
    propagation: PropagationModel | None = None,
    require_connected: bool = True,
    max_retries: int = 50,
) -> Network:
    """The unplanned scenario: uniform placement, heterogeneous power.

    Placement is resampled (deterministically, from the supplied generator)
    until the communication graph is connected, mirroring how simulation
    studies discard disconnected instances; set ``require_connected=False``
    to keep the first draw regardless.
    """
    generator = ensure_rng(rng)
    radio = radio or RadioConfig()
    propagation = propagation or LogDistancePathLoss(alpha=radio.alpha)
    region = SquareRegion.for_density(n, density_per_km2)
    low, high = power_range_dbm

    last: Network | None = None
    for _ in range(max_retries):
        positions = uniform_positions(n, region, generator)
        tx = heterogeneous_tx_power(n, generator, low_dbm=low, high_dbm=high)
        last = Network(positions, tx, radio, propagation, region)
        if not require_connected or last.is_connected():
            return last
    raise RuntimeError(
        f"could not draw a connected uniform network in {max_retries} tries "
        f"(n={n}, density={density_per_km2}/km^2); the density is likely too "
        "low for the configured radio range"
    )
