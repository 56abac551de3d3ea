"""Grid-bucket spatial index over node positions.

The sparse interference stack needs one geometric primitive: "which node
pairs lie within radius ``r``?" — the near-field entries of a
:class:`~repro.phy.sparse.SparsePowerMatrix`.  A uniform grid of square
cells answers it in O(occupants of the 3x3-ish cell stencil) per node with
nothing but lexsort and searchsorted: positions are bucketed once into
cells of ``cell_size`` meters (keyed to the interference radius, so one
stencil ring covers the radius), and every node is tested only against the
*occupied* buckets its stencil can touch — found by binary search on the
sorted occupied-cell keys, so empty cells cost nothing and a fine index
joined at a coarse radius stays O(occupied cells), not
O((radius / cell_size)²).

Tree indexes (k-d, R-trees) win on wildly non-uniform data; mesh
deployments are density-bounded by construction (the paper deploys by
nodes/km²), which is exactly the regime where the grid's O(1) bucket math
beats tree pointer-chasing — the same structure Halldórsson & Mitra's
length-class analysis (arXiv:1104.5200) imposes on instances before
reasoning about them.

Everything is vectorized over numpy arrays; the property suite pins the
pair join against brute-force :func:`~repro.phy.gain.distance_matrix`
answers, including invariance of the results under cell-size changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.phy.sinr import GATHER_ELEMENTS
from repro.util.ranges import expand_ranges
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
    #: Node indices sorted by (cell_x, cell_y): each occupied cell is one
    #: contiguous run, each occupied column of cells one run of runs.
    _order: np.ndarray = field(init=False, repr=False)
    #: ``(k + 1,)`` run boundaries: cell ``c`` owns ``_order[_starts[c]:_starts[c+1]]``.
    _starts: np.ndarray = field(init=False, repr=False)
    #: ``(k, 2)`` coordinates of the occupied cells, lexsorted.
    _cell_keys: np.ndarray = field(init=False, repr=False)
    #: Sorted distinct ``cell_x`` / ``cell_y`` values; a cell's *ranks* in
    #: them fold into one sortable key ``_flat`` that cannot overflow
    #: whatever the deployment extent (ranks are below ``n``).
    _col_x: np.ndarray = field(init=False, repr=False)
    _row_y: np.ndarray = field(init=False, repr=False)
    _cell_col: np.ndarray = field(init=False, repr=False)
    _flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {pos.shape}")
        check_finite_array("positions", pos)
        check_positive("cell_size", self.cell_size)
        object.__setattr__(self, "positions", pos)
        cells = np.floor(pos / self.cell_size).astype(np.int64)
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        sorted_cells = cells[order]
        new_run = np.ones(order.size, dtype=bool)
        new_run[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
        starts = np.flatnonzero(new_run)
        keys = sorted_cells[starts]
        new_col = np.ones(starts.size, dtype=bool)
        new_col[1:] = keys[1:, 0] != keys[:-1, 0]
        cell_col = np.cumsum(new_col) - 1
        row_y, cell_row = np.unique(keys[:, 1], return_inverse=True)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_starts", np.append(starts, order.size))
        object.__setattr__(self, "_cell_keys", keys)
        object.__setattr__(self, "_col_x", keys[new_col, 0])
        object.__setattr__(self, "_row_y", row_y)
        object.__setattr__(self, "_cell_col", cell_col)
        object.__setattr__(self, "_flat", cell_col * row_y.size + cell_row)

    def _band(
        self, cols: np.ndarray, y_lo: np.ndarray, y_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Runs ``[lo, hi)`` of ``_order`` holding, per entry, the occupants of
        occupied column ``cols`` (a rank into ``_col_x``) whose ``cell_y`` lies
        in ``[y_lo, y_hi]`` — contiguous because cells sort by ``(x, y)``."""
        base = cols * self._row_y.size
        lo = np.searchsorted(self._flat, base + np.searchsorted(self._row_y, y_lo))
        hi = np.searchsorted(
            self._flat, base + np.searchsorted(self._row_y, y_hi, side="right")
        )
        return self._starts[lo], self._starts[hi]

    def _partner_runs(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The half-plane join plan: ``(a, b_lo, b_hi)`` over ``_order`` positions.

        Entry ``t`` says: test the node at sorted position ``a[t]`` against
        those at ``b_lo[t] .. b_hi[t] - 1``.  A node is joined against the
        rest of its own cell's run and the cells above it in its column
        (one run), and the stencil's band in every occupied column to its
        right — so each unordered pair of the full stencil appears exactly
        once, and each band is one contiguous run found by :meth:`_band`.
        """
        keys, starts = self._cell_keys, self._starts
        # No stencil needs to reach beyond the deployment's own extent.
        extent = np.ptp(keys, axis=0).max() if keys.size else 0
        reach = int(min(np.ceil(radius / self.cell_size), extent))
        # Per occupied cell: the occupied columns x .. x + reach.
        cell, col = expand_ranges(
            self._cell_col,
            np.searchsorted(self._col_x, keys[:, 0] + reach, side="right"),
        )
        own = col == self._cell_col[cell]
        y = keys[cell, 1]
        lo, hi = self._band(col, np.where(own, y, y - reach), y + reach)
        # Per node of each such cell: its run of partners in that column.
        task, a = expand_ranges(starts[cell], starts[cell + 1])
        return a, np.where(own[task], a + 1, lo[task]), hi[task]

    def near_pairs(
        self, radius: float
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every unordered pair within ``radius``, once: chunks ``(i, j, d²)``.

        The harvest primitive of the sparse gain builder.  ``i != j``, and
        a pair appears as ``(i, j)`` or ``(j, i)``, never both; chunks come
        in no particular order and there is always at least one.  ``d²`` is
        the squared distance the ``d² <= radius²`` test used
        (``dx*dx + dy*dy``), kept so the caller need not gather positions
        again.

        One pass over the cell-sorted nodes (:meth:`_partner_runs`), with
        candidates expanded ``GATHER_ELEMENTS // 8`` at a time (eight
        same-length temporaries each), so the transient is O(chunk), not
        O(candidates).
        """
        check_positive("radius", radius)
        r2 = radius * radius
        a, b_lo, b_hi = self._partner_runs(radius)
        ends = np.cumsum(b_hi - b_lo)
        xs, ys = np.ascontiguousarray(self.positions[self._order].T)
        step = GATHER_ELEMENTS // 8
        t0 = 0
        while True:  # at least one (possibly empty) chunk
            done = ends[t0 - 1] if t0 else 0
            t1 = max(t0 + 1, int(np.searchsorted(ends, done + step, side="right")))
            owner, b = expand_ranges(b_lo[t0:t1], b_hi[t0:t1])
            a_of = a[t0:t1][owner]
            dx = xs[a_of] - xs[b]
            dy = ys[a_of] - ys[b]
            d2 = dx * dx + dy * dy
            near = d2 <= r2
            yield self._order[a_of[near]], self._order[b[near]], d2[near]
            t0 = t1
            if t0 >= a.size:
                return
