"""Deployment regions and the density sweep arithmetic of Section VI.

The paper's simulations fix the node count at 64 and vary *density*
(nodes per square kilometer) by scaling the deployment area.  These helpers
convert between density and region side length so every experiment states
its sweep in the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

SQ_METERS_PER_SQ_KM = 1_000_000.0


def side_for_density(n_nodes: int, density_per_km2: float) -> float:
    """Side (meters) of the square region holding ``n_nodes`` at a density.

    >>> round(side_for_density(64, 1000.0), 1)
    253.0
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    check_positive("density_per_km2", density_per_km2)
    area_m2 = n_nodes / density_per_km2 * SQ_METERS_PER_SQ_KM
    return float(np.sqrt(area_m2))


@dataclass(frozen=True)
class SquareRegion:
    """A square deployment region ``[0, side] x [0, side]`` in meters."""

    side: float

    def __post_init__(self) -> None:
        check_positive("side", self.side)

    @property
    def diameter(self) -> float:
        """Euclidean diameter (Definition 11): the diagonal for a square."""
        return self.side * np.sqrt(2.0)

    @classmethod
    def for_density(cls, n_nodes: int, density_per_km2: float) -> "SquareRegion":
        """Region sized so ``n_nodes`` sit at ``density_per_km2``."""
        return cls(side_for_density(n_nodes, density_per_km2))


def tile_counts_for(n_tiles: int) -> tuple[int, int]:
    """The most-square ``(nx, ny)`` factorization of ``n_tiles``.

    Used to turn a shard *count* into a grid tiling: 4 -> (2, 2),
    6 -> (3, 2), a prime like 5 -> (5, 1).  ``nx >= ny`` always.
    """
    if n_tiles <= 0:
        raise ValueError(f"n_tiles must be positive, got {n_tiles}")
    ny = int(np.sqrt(n_tiles))
    while n_tiles % ny != 0:
        ny -= 1
    return n_tiles // ny, ny


@dataclass(frozen=True)
class GridTiling:
    """An ``nx x ny`` tiling of a :class:`SquareRegion` into rectangular tiles.

    The spatial partition behind the sharded epoch engine
    (:mod:`repro.traffic.sharded`): tile ``(ix, iy)`` covers
    ``[ix*w, (ix+1)*w) x [iy*h, (iy+1)*h)`` with ``w = side/nx`` and
    ``h = side/ny``; positions on the region's outer edge are clamped into
    the last tile, so every in-region position lands in exactly one tile.
    """

    region: SquareRegion
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(
                f"tile counts must be positive, got nx={self.nx}, ny={self.ny}"
            )

    @property
    def tile_width(self) -> float:
        return self.region.side / self.nx

    @property
    def tile_height(self) -> float:
        return self.region.side / self.ny

    @classmethod
    def for_tiles(cls, region: SquareRegion, n_tiles: int) -> "GridTiling":
        """The most-square tiling with exactly ``n_tiles`` tiles."""
        nx, ny = tile_counts_for(n_tiles)
        return cls(region, nx, ny)

    def tile_of(self, positions: np.ndarray) -> np.ndarray:
        """Tile index (``iy * nx + ix``) of each ``(m, 2)`` position.

        Positions outside the region are clamped into the boundary tiles
        (the region's boundary is closed).
        """
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        ix = np.clip((pos[:, 0] / self.tile_width).astype(np.intp), 0, self.nx - 1)
        iy = np.clip((pos[:, 1] / self.tile_height).astype(np.intp), 0, self.ny - 1)
        return iy * self.nx + ix

    def internal_edge_distance(self, positions: np.ndarray) -> np.ndarray:
        """Distance (m) from each position to the nearest *internal* tile edge.

        Internal edges are the ``nx - 1`` vertical and ``ny - 1`` horizontal
        cut lines between tiles; the region's outer boundary is not an edge
        between shards and never counts.  A 1x1 tiling has no internal edges
        and returns ``inf`` everywhere — the degenerate single-shard case in
        which no link is a boundary link.
        """
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        dist = np.full(pos.shape[0], np.inf)
        if self.nx > 1:
            cuts = np.arange(1, self.nx) * self.tile_width
            dist = np.minimum(dist, np.abs(pos[:, 0, None] - cuts).min(axis=1))
        if self.ny > 1:
            cuts = np.arange(1, self.ny) * self.tile_height
            dist = np.minimum(dist, np.abs(pos[:, 1, None] - cuts).min(axis=1))
        return dist
