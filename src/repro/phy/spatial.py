"""Grid-bucket spatial index over node positions.

The sparse interference stack needs one geometric primitive: "which nodes
sit within radius ``r`` of here?" — asked once per node when the near-field
entries of a :class:`~repro.phy.sparse.SparsePowerMatrix` are harvested, and
again by experiments that window deployments.  A uniform grid of square
cells answers it in O(occupants of the 3x3-ish cell stencil) with nothing
but lexsort and searchsorted: positions are bucketed once into cells of
``cell_size`` meters (keyed to the interference radius, so one stencil ring
covers the query radius), and every query inspects only the *occupied*
buckets the query disc can touch — found by binary search on the sorted
occupied-cell keys, so empty cells cost nothing and a fine index queried at
a coarse radius stays O(occupied cells), not O((radius / cell_size)²).

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
from typing import Iterator

import numpy as np

from repro.phy.sinr import _GATHER_ELEMENTS
from repro.util.ranges import expand_ranges
from repro.util.validation import check_finite_array, check_positive

_INT64 = np.iinfo(np.int64)


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

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

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

    def _stencil_members(self, cell_x: int, cell_y: int, reach: int) -> np.ndarray:
        """Node indices in the ``(2*reach+1)²`` stencil around a cell.

        One binary search for the occupied columns the stencil spans, one
        per column for its rows: cost follows occupancy, not ``reach²``.
        """
        x_lo, x_hi, y_lo, y_hi = (
            min(max(c, _INT64.min), _INT64.max)
            for c in (cell_x - reach, cell_x + reach, cell_y - reach, cell_y + reach)
        )
        cols = np.arange(
            np.searchsorted(self._col_x, x_lo),
            np.searchsorted(self._col_x, x_hi, side="right"),
        )
        return self._order[expand_ranges(*self._band(cols, y_lo, y_hi))[1]]

    def query_radius(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all nodes within ``radius`` of ``point``, ascending.

        Inclusive boundary (``distance <= radius``), matching the
        brute-force ``distance_matrix(...) <= radius`` predicate the
        property suite compares against.
        """
        check_positive("radius", radius)
        p = np.asarray(point, dtype=float).reshape(2)
        reach = int(np.ceil(radius / self.cell_size))
        cx, cy = (int(c) for c in np.floor(p / self.cell_size))
        cand = self._stencil_members(cx, cy, reach)
        deltas = self.positions[cand] - p
        hit = cand[np.einsum("ij,ij->i", deltas, deltas) <= radius * radius]
        return np.sort(hit)

    def k_nearest(self, point: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` nodes nearest to ``point``, nearest first.

        Ties break by node index (ascending), so the answer is a pure
        function of the deployment — no dependence on bucket layout, which
        the cell-size-invariance property test relies on.  Doubles the
        stencil until the k-th candidate provably cannot be beaten by any
        node outside the searched square.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        k = min(k, self.n_nodes)
        p = np.asarray(point, dtype=float).reshape(2)
        cx, cy = (int(c) for c in np.floor(p / self.cell_size))
        reach = 1
        while True:
            cand = self._stencil_members(cx, cy, reach)
            if cand.size >= k:
                deltas = self.positions[cand] - p
                d2 = np.einsum("ij,ij->i", deltas, deltas)
                sel = np.lexsort((cand, d2))[:k]
                # A stencil of ``reach`` rings covers every point within
                # ``(reach - 1) * cell_size`` of the query cell, whatever
                # the query's offset inside it.
                safe = (reach - 1) * self.cell_size
                if cand.size >= self.n_nodes or (
                    safe > 0 and float(np.sqrt(d2[sel[-1]])) <= safe
                ):
                    return cand[sel]
            reach *= 2

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
        candidates expanded ``_GATHER_ELEMENTS // 8`` at a time (eight
        same-length temporaries each), so the transient is O(chunk), not
        O(candidates).
        """
        check_positive("radius", radius)
        r2 = radius * radius
        a, b_lo, b_hi = self._partner_runs(radius)
        ends = np.cumsum(b_hi - b_lo)
        xs, ys = np.ascontiguousarray(self.positions[self._order].T)
        step = _GATHER_ELEMENTS // 8
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

    def pairs_within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All ordered pairs ``(i, j)``, ``i != j``, with ``d(i, j) <= radius``.

        Returned arrays are lexsorted by ``(i, j)`` and symmetric as a set
        (``(i, j)`` present iff ``(j, i)`` is): :meth:`near_pairs`, both
        directions, sorted.
        """
        a, b, _ = zip(*self.near_pairs(radius))
        i = np.concatenate(a + b)
        j = np.concatenate(b + a)
        order = np.lexsort((j, i))
        return i[order], j[order]
