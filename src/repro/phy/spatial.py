"""Grid-bucket spatial index over node positions.

The sparse interference stack needs one geometric primitive: "which nodes
sit within radius ``r`` of here?" — asked once per node when the near-field
entries of a :class:`~repro.phy.sparse.SparsePowerMatrix` are harvested, and
again by experiments that window deployments.  A uniform grid of square
cells answers it in O(occupants of the 3x3-ish cell stencil) with nothing
but lexsort and searchsorted: positions are bucketed once into cells of
``cell_size`` meters (keyed to the interference radius, so one stencil ring
covers the query radius), and every query inspects only the buckets the
query disc can touch.

Tree indexes (k-d, R-trees) win on wildly non-uniform data; mesh
deployments are density-bounded by construction (the paper deploys by
nodes/km²), which is exactly the regime where the grid's O(1) bucket math
beats tree pointer-chasing — the same structure Halldórsson & Mitra's
length-class analysis (arXiv:1104.5200) imposes on instances before
reasoning about them.

Everything is vectorized over numpy arrays; the property suite pins every
query against brute-force :func:`~repro.phy.gain.distance_matrix` answers,
including invariance of the results under cell-size changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.util.validation import check_finite_array, check_positive


@dataclass(frozen=True)
class GridIndex:
    """Static spatial index: ``(n, 2)`` positions bucketed into square cells.

    Attributes
    ----------
    positions:
        ``(n, 2)`` float array of planar coordinates (meters).
    cell_size:
        Cell edge length in meters.  Pick the dominant query radius (the
        interference cutoff): then a radius-``r`` query touches at most a
        3x3 stencil and candidate lists stay within a small constant of
        the true answer.
    """

    positions: np.ndarray
    cell_size: float
    _cells: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)
    _cell_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {pos.shape}")
        check_finite_array("positions", pos)
        check_positive("cell_size", self.cell_size)
        object.__setattr__(self, "positions", pos)
        cells = np.floor(pos / self.cell_size).astype(np.int64)
        # Bucketing: sort nodes by (cell_x, cell_y); each occupied cell is
        # one contiguous run of the sorted order.  Cell coordinates are
        # folded into a single sortable key via an offset-free pairing that
        # is stable for any deployment extent (int64 pair -> structured
        # lexsort, then run-length boundaries).
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        sorted_cells = cells[order]
        if order.size:
            new_run = np.empty(order.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
            starts = np.flatnonzero(new_run)
            keys = sorted_cells[starts]
        else:
            starts = np.empty(0, dtype=np.intp)
            keys = np.empty((0, 2), dtype=np.int64)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_cell_keys", keys)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def _bucket_of(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Map (cell_x, cell_y) -> (start, stop) run into ``_order``."""
        stops = np.append(self._starts[1:], self._order.size)
        return {
            (int(cx), int(cy)): (int(a), int(b))
            for (cx, cy), a, b in zip(self._cell_keys, self._starts, stops)
        }

    def _stencil_members(self, cell_x: int, cell_y: int, reach: int) -> np.ndarray:
        """Node indices in the ``(2*reach+1)²`` stencil around a cell."""
        bucket_of = self._bucket_of
        runs = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                run = bucket_of.get((cell_x + dx, cell_y + dy))
                if run is not None:
                    runs.append(self._order[run[0] : run[1]])
        if not runs:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(runs)

    def query_radius(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all nodes within ``radius`` of ``point``, ascending.

        Inclusive boundary (``distance <= radius``), matching the
        brute-force ``distance_matrix(...) <= radius`` predicate the
        property suite compares against.
        """
        check_positive("radius", radius)
        p = np.asarray(point, dtype=float).reshape(2)
        reach = int(np.ceil(radius / self.cell_size))
        cx, cy = np.floor(p / self.cell_size).astype(np.int64)
        cand = self._stencil_members(int(cx), int(cy), reach)
        if cand.size == 0:
            return cand
        deltas = self.positions[cand] - p
        hit = cand[np.einsum("ij,ij->i", deltas, deltas) <= radius * radius]
        return np.sort(hit)

    def k_nearest(self, point: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` nodes nearest to ``point``, nearest first.

        Ties break by node index (ascending), so the answer is a pure
        function of the deployment — no dependence on bucket layout, which
        the cell-size-invariance property test relies on.  Expands the
        stencil ring by ring until the k-th candidate provably cannot be
        beaten by any node outside the searched square.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        k = min(k, self.n_nodes)
        p = np.asarray(point, dtype=float).reshape(2)
        cx, cy = (int(c) for c in np.floor(p / self.cell_size).astype(np.int64))
        reach = 1
        while True:
            cand = self._stencil_members(cx, cy, reach)
            if cand.size >= k:
                deltas = self.positions[cand] - p
                d2 = np.einsum("ij,ij->i", deltas, deltas)
                # A stencil of ``reach`` rings covers every point within
                # ``(reach - 1) * cell_size`` of the query cell, whatever
                # the query's offset inside it.  Safe radius in squared
                # meters:
                safe = (reach - 1) * self.cell_size
                sel = np.lexsort((cand, d2))[:k]
                if safe > 0 and float(np.sqrt(d2[sel[-1]])) <= safe:
                    return cand[sel]
            if cand.size >= self.n_nodes:
                deltas = self.positions[cand] - p
                d2 = np.einsum("ij,ij->i", deltas, deltas)
                return cand[np.lexsort((cand, d2))[:k]]
            reach += 1

    def pairs_within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All ordered pairs ``(i, j)``, ``i != j``, with ``d(i, j) <= radius``.

        The harvest primitive of the sparse gain builder: returned arrays
        are lexsorted by ``(i, j)`` and symmetric as a set (``(i, j)``
        present iff ``(j, i)`` is).  Built cell-block by cell-block — for
        every occupied cell, candidates come from its stencil only — so
        the cost is O(n · occupancy · stencil²) instead of O(n²).
        """
        check_positive("radius", radius)
        reach = int(np.ceil(radius / self.cell_size))
        r2 = radius * radius
        pos = self.positions
        stops = np.append(self._starts[1:], self._order.size)
        heads: list[np.ndarray] = []
        tails: list[np.ndarray] = []
        for (cx, cy), a, b in zip(self._cell_keys, self._starts, stops):
            left = self._order[a:b]
            cand = self._stencil_members(int(cx), int(cy), reach)
            # Cross join of the cell's occupants against the stencil's.
            li = np.repeat(left, cand.size)
            rj = np.tile(cand, left.size)
            deltas = pos[li] - pos[rj]
            near = (np.einsum("ij,ij->i", deltas, deltas) <= r2) & (li != rj)
            heads.append(li[near])
            tails.append(rj[near])
        if not heads:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        i = np.concatenate(heads)
        j = np.concatenate(tails)
        order = np.lexsort((j, i))
        return i[order], j[order]
