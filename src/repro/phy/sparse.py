"""Sparse received-power storage with far-field aggregation.

The dense ``(n, n)`` received-power matrix is the reproduction's central
physical object — and its scaling wall: 10⁵ nodes would need 80 GB before a
single SINR is computed, yet almost all of that power is physically
irrelevant.  Under a path-loss exponent ``alpha > 2`` the aggregate
interference a receiver collects from beyond a cutoff radius ``c`` falls off
as ``c^(2-alpha)``: far links contribute a vanishing, slowly varying hum,
not per-pair structure.  Both Halldórsson & Mitra (arXiv:1104.5200) and
Zhou et al. (arXiv:1208.0902) build their guarantees on exactly this split —
near-field sets handled exactly, remote interference budgeted as a noise
term.

:class:`SparsePowerMatrix` stores only the near-field entries (CSR-style
per-node neighbor lists over sorted ``i*n + j`` keys) and reads as the dense
matrix would: every access pattern the SINR kernels use — pairwise gathers,
``np.ix_`` meshes, row slices — goes through one vectorized ``searchsorted``
gather, with absent entries *exactly* ``0.0``.  Because adding an exact zero
to a non-negative float sum never changes it, every kernel that consumes the
matrix produces bit-identical verdicts whether far terms are skipped or
summed — which is why ``cutoff=inf`` (every entry stored) reproduces the
dense pipeline bit-for-bit, the differential anchor of the sparse stack.

The far field is not dropped: :func:`far_field_floor_mw` folds it into a
per-node noise-floor budget installed through the same ``budget_mw``
machinery the sharded engine's guard margins use (PR 3), so finite-cutoff
models budget for remote interference rather than ignore it.  The recorded
idealization: the floor assumes at most one concurrent far-field
transmitter per carrier-sense disk, integrated over the continuum beyond
the cutoff.  It is a static mean-field estimate, not a bound: measured
against the exact model it *under*-provisions at scale.  So the floor is a
packing *heuristic* and the guarantee lives elsewhere: a matrix built by
:func:`build_sparse_power` keeps a reference to the geometry it was
harvested from, and ``greedy_physical`` checks every slot it packs on a
truncated matrix with the exact per-slot kernel of :mod:`repro.phy.truth`,
peeling and re-packing what does not decode.  The schedules it emits are
truth-feasible whatever the floor says; the number of memberships it had
to re-pack is the floor's measured error (DESIGN.md §13: on the
``sparse_10k`` epoch, 20 % of them in the hashed link order that
``greedy_physical`` uses on a truncated matrix, 29 % in the ID order).

The under-estimate is kept on purpose.  A floor that is an upper *bound*
per slot would make repairs rare, but it would also make the schedules
longer.  Any admission rule that is exact or conservative refuses at least
what the exact model refuses, so it is held to what exact first-fit
achieves *in the same link order*.  On the ``sparse_10k`` pipeline at 20²,
40² and 60² nodes, with demand 1 per forest link, exact dense
``greedy_physical`` packs 53 / 114 / 174 slots in the decreasing-ID order,
while truncate + repair packs 32 / 39 / 41: most of that gap is the raster
order's, which chains neighbouring links.  In the decreasing *hashed*-ID
order, the default on a truncated matrix, exact first-fit packs 26 / 29 /
45 slots and truncate + repair 31 / 34 / 41 (0.84-1.10x).  The floor
over-admits, and the peel removes the lowest-margin members of each slot.
Rates read off the verified SINR are still open (ROADMAP item 2(d)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.phy.propagation import PropagationModel
from repro.phy.radio import RadioConfig
from repro.phy.spatial import GridIndex
from repro.phy.truth import Geometry
from repro.util.ranges import expand_ranges
from repro.util.validation import check_finite_array


class SparsePowerMatrix:
    """Near-field received powers, readable like the dense ``(n, n)`` matrix.

    Storage is one sorted ``int64`` key array (``key = i * n + j``) plus the
    matching value array — row-major order, so each row is one contiguous
    key run (the CSR row pointer ``indptr`` falls out of a single
    vectorized ``searchsorted``).  Entries never stored read as exactly
    ``0.0``.

    Indexing searches the global key array; consumers that walk whole rows
    (slot packing, graph construction) read :meth:`rows` / :meth:`entries`
    instead, which gather or slice the storage by ``indptr``.

    Supported indexing (everything the SINR/feasibility kernels do):

    * ``P[i, j]`` with scalars — a float;
    * ``P[rows, cols]`` with equal-length arrays — pairwise gather;
    * ``P[np.ix_(rows, cols)]`` — the 2-D mesh, via broadcasting;
    * ``P[rows, :]`` — densified rows (carrier-sense column sums).

    Negative (wrap-around) indices are not supported; the kernels never use
    them.
    """

    is_sparse_power = True
    ndim = 2

    def __init__(self, n: int, keys: np.ndarray, vals: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if keys.ndim != 1 or keys.shape != vals.shape:
            raise ValueError("keys and vals must be equal-length 1-D arrays")
        if keys.size:
            if np.any(np.diff(keys) <= 0):
                raise ValueError("keys must be strictly increasing (sorted, unique)")
            if keys[0] < 0 or keys[-1] >= n * n:
                raise ValueError("keys out of range for an (n, n) matrix")
        if np.any(vals < 0):
            raise ValueError("received powers must be non-negative")
        self.n = int(n)
        self._keys = keys
        self._vals = vals
        #: CSR row pointer: row ``i`` owns ``keys[indptr[i]:indptr[i+1]]``
        #: (what :meth:`rows` and :meth:`entries` read rows through).
        self.indptr = np.searchsorted(
            keys, np.arange(self.n + 1, dtype=np.int64) * self.n
        )
        #: Column index per stored entry (the CSR ``indices`` array) —
        #: precomputed so :meth:`rows` (and :meth:`neighbors` and
        #: :meth:`column_sums` through it) is a gather, not per-call arithmetic.
        self._cols = (keys - (keys // self.n) * self.n).astype(np.intp)
        #: The recipe the entries were harvested from (a reference, set by
        #: :func:`build_sparse_power`): what lets :mod:`repro.phy.truth`
        #: evaluate the entries a finite cutoff left out.  ``None`` for a
        #: hand-built matrix, which is then all there is to know.
        self.geometry: Geometry | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        return int(self._keys.size)

    @property
    def keys(self) -> np.ndarray:
        """The sorted ``i * n + j`` key of every stored entry, row-major —
        aligned with :meth:`entries`.  Treat as read-only."""
        return self._keys

    @property
    def value_dense(self) -> bool:
        """Every entry stored (``cutoff=inf``) — the bit-identity regime.

        Kernels with a faster-but-reordered sparse summation path (e.g.
        :func:`repro.phy.sinr.sinr_for_links`) must skip it when this is
        true, so the value-dense matrix keeps reproducing the dense
        pipeline's floating-point sums bit-for-bit.
        """
        return self._keys.size == self.n * self.n

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry as ``(rows, cols, vals)``, in row-major order."""
        rows = np.repeat(np.arange(self.n, dtype=np.intp), np.diff(self.indptr))
        return rows, self._cols, self._vals

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Several CSR rows in one gather: ``(owner, cols, vals)``.

        The stored entries of ``P[nodes[0], :]``, ``P[nodes[1], :]``, ...
        laid end to end, each row's columns ascending; ``owner[t]`` is the
        position in ``nodes`` of the row entry ``t`` came from (ascending,
        repeated nodes repeat their row).  Copies, not views.
        """
        idx = np.asarray(nodes, dtype=np.intp)
        owner, flat = expand_ranges(self.indptr[idx], self.indptr[idx + 1])
        return owner, self._cols[flat], self._vals[flat]

    def column_sums(self, rows: np.ndarray) -> np.ndarray:
        """``(n,)`` per-column sums over the listed rows' stored entries.

        The sparse analogue of ``P[rows, :].sum(axis=0)`` in
        ``O(sum of row populations)`` — the rows' CSR segments from
        :meth:`rows` followed by one ``bincount`` scatter-add.
        Repeated rows contribute repeatedly, exactly as the dense slice
        would.  Summation order differs from the dense (pairwise) reduction,
        so bit-identity-sensitive callers gate on :attr:`value_dense`.
        """
        _, cols, vals = self.rows(rows)
        return np.bincount(cols, weights=vals, minlength=self.n)

    def _gather(self, rows, cols) -> np.ndarray | float:
        # The multiply broadcasts scalar/array/ix_-mesh combinations without
        # materializing broadcast_arrays' intermediate index pair.
        flat = np.asarray(rows, dtype=np.int64) * self.n + np.asarray(
            cols, dtype=np.int64
        )
        if self._keys.size == 0:
            out = np.zeros(flat.shape, dtype=float)
            return float(out) if out.ndim == 0 else out
        f = flat.ravel()
        pos = self._keys.searchsorted(f)
        np.minimum(pos, self._keys.size - 1, out=pos)
        hit = self._keys[pos] == f
        out = np.where(hit, self._vals[pos], 0.0).reshape(flat.shape)
        return float(out) if out.ndim == 0 else out

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError(
                "SparsePowerMatrix supports pair indexing only: P[i, j], "
                "P[rows, cols], P[np.ix_(rows, cols)], or P[rows, :]"
            )
        rows, cols = key
        if isinstance(cols, slice):
            if cols != slice(None):
                raise TypeError("only full column slices (P[rows, :]) are supported")
            return self._gather(np.asarray(rows)[..., None], np.arange(self.n))
        if isinstance(rows, slice):
            raise TypeError("row slices (P[:, cols]) are not supported")
        return self._gather(rows, cols)

    def toarray(self) -> np.ndarray:
        """The equivalent dense matrix (tests and small-n tooling only)."""
        out = np.zeros(self.n * self.n, dtype=float)
        out[self._keys] = self._vals
        return out.reshape(self.n, self.n)


def build_sparse_power(
    positions: np.ndarray,
    tx_power_mw: np.ndarray,
    model: PropagationModel,
    cutoff_m: float,
    index: GridIndex | None = None,
) -> SparsePowerMatrix:
    """Harvest near-field received powers: ``P[i, j]`` for ``d(i, j) <= cutoff``.

    The diagonal is always stored (the dense matrix clamps it to the
    reference gain and carrier-sense paths read it).  ``cutoff_m=inf``
    stores *every* entry — no memory win, but the resulting matrix is
    value-identical to :func:`~repro.phy.gain.received_power_matrix`, which
    is the bit-identity harness of the differential suite.
    """
    pos = np.asarray(positions, dtype=float)
    tx = np.asarray(tx_power_mw, dtype=float)
    n = pos.shape[0]
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {pos.shape}")
    if tx.shape != (n,):
        raise ValueError(f"tx_power_mw must have shape ({n},), got {tx.shape}")
    check_finite_array("positions", pos)
    check_finite_array("tx_power_mw", tx)
    if np.any(tx <= 0):
        raise ValueError("transmit powers must be strictly positive")
    if cutoff_m <= 0:
        raise ValueError(f"cutoff_m must be positive, got {cutoff_m}")

    if math.isinf(cutoff_m):
        i, j = np.triu_indices(n, k=1)
        dx, dy = (pos[i] - pos[j]).T
        d2 = dx * dx + dy * dy
    else:
        if index is None:
            index = GridIndex(pos, cell_size=float(cutoff_m))
        i, j, d2 = (
            np.concatenate(part) for part in zip(*index.near_pairs(float(cutoff_m)))
        )
    # One gain per unordered pair serves both directions: the law sees only
    # the distance, and P[tx, rx] = power(tx) * gain.
    gain = model.gain(np.sqrt(d2))
    i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
    diag = np.arange(n, dtype=np.int64)
    keys = np.concatenate([i * n + j, j * n + i, diag * n + diag])
    vals = np.concatenate([tx[i] * gain, tx[j] * gain, tx * model.gain(np.zeros(n))])
    del i, j, d2, gain  # as large as the result; free them before the sort
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    power = SparsePowerMatrix(n, keys, vals)
    power.geometry = Geometry(pos, tx, model)
    return power


def interference_radius_m(
    tx_power_mw: np.ndarray, model: PropagationModel, radio: RadioConfig
) -> float:
    """The carrier-sense radius of the strongest transmitter, in meters.

    The natural near-field cutoff: beyond this distance no node's signal
    even trips carrier sensing (``tx * gain(d) < cs_threshold``), so its
    interference is indistinguishable from the far-field hum the noise
    floor budgets.  Solved through the propagation model's
    ``range_for_snr`` inversion, so cutoff and gains come from one law.
    """
    tx = np.asarray(tx_power_mw, dtype=float)
    # tx * gain(d) = cs_threshold  <=>  SNR over noise_mw equals
    # cs_threshold / noise_mw = beta / gamma^alpha.
    beta_eff = radio.cs_threshold_mw / radio.noise_mw
    return float(model.range_for_snr(float(tx.max()), radio.noise_mw, beta_eff))


def far_field_floor_mw(
    n_nodes: int,
    tx_power_mw: np.ndarray,
    model: PropagationModel,
    cutoff_m: float,
    alpha: float,
) -> np.ndarray | None:
    """Per-node noise-floor budget absorbing all interference beyond the cutoff.

    The idealization, recorded here and in DESIGN.md §13: concurrent
    transmitters are SINR-limited to roughly one per carrier-sense disk, so
    the far field is modeled as a continuum of mean-power transmitters at
    density ``sigma = 1 / (pi * cutoff²)``.  Integrating the path law from
    the cutoff outward::

        floor = ∫_c^∞ sigma · t̄ · gain(r) · 2πr dr = 2 · t̄ · gain(c) / (alpha - 2)

    — finite exactly when ``alpha > 2``, the same condition the paper's
    approximation analysis needs.  The floor is a *budget* in the PR 3
    sense: installed as ``PhysicalInterferenceModel.budget_mw`` it tightens
    every SINR check additively, and shard guard margins stack on top of it
    (:meth:`~repro.phy.interference.PhysicalInterferenceModel.with_budget`
    composes budgets by addition).  ``cutoff=inf`` returns ``None`` — no
    far field, the exact model.
    """
    if cutoff_m <= 0:
        raise ValueError(f"cutoff_m must be positive, got {cutoff_m}")
    if math.isinf(cutoff_m):
        return None
    if alpha <= 2:
        raise ValueError(
            f"the far-field integral diverges for alpha <= 2, got {alpha}"
        )
    tx = np.asarray(tx_power_mw, dtype=float)
    gain_at_cutoff = float(model.gain(np.asarray([cutoff_m]))[0])
    floor = 2.0 * float(tx.mean()) * gain_at_cutoff / (alpha - 2.0)
    return np.full(n_nodes, floor, dtype=float)


@dataclass(frozen=True)
class SparseGainModel:
    """The sparse interference backend, bundled: near-field powers, the
    far-field floor they imply, and the spatial index that harvested them.

    Build with :func:`sparse_gain_model`; bind to a radio with
    :meth:`interference_model` to get a drop-in
    :class:`~repro.phy.interference.PhysicalInterferenceModel` — every
    scheduler, engine, and kernel accepts it through the same interface as
    the dense oracle.
    """

    power: SparsePowerMatrix
    cutoff_m: float
    floor_mw: np.ndarray | None
    index: GridIndex | None

    def interference_model(self, radio: RadioConfig):
        """A feasibility oracle over the sparse backend.

        The far-field floor rides in as the model's ``budget_mw`` — the
        same per-receiving-node noise increment the sharded guard margins
        use, so the two compose by addition when a shard installs its
        budget on top.
        """
        from repro.phy.interference import PhysicalInterferenceModel

        return PhysicalInterferenceModel(self.power, radio, self.floor_mw)


def sparse_gain_model(
    positions: np.ndarray,
    tx_power_mw: np.ndarray,
    model: PropagationModel,
    radio: RadioConfig,
    cutoff_m: float | None = None,
    far_field: str = "packing",
    index: GridIndex | None = None,
) -> SparseGainModel:
    """Build the sparse backend for one deployment.

    ``cutoff_m=None`` derives the cutoff from the radio: the carrier-sense
    radius of the strongest transmitter (:func:`interference_radius_m`).
    ``far_field`` chooses the floor: ``"packing"`` (the default, the
    one-transmitter-per-CS-disk continuum of :func:`far_field_floor_mw`)
    or ``"none"`` (no budget — near-field-only, optimistic).
    ``cutoff_m=inf`` always yields a floorless, value-dense model — the
    bit-identity configuration.
    """
    pos = np.asarray(positions, dtype=float)
    if cutoff_m is None:
        cutoff_m = interference_radius_m(tx_power_mw, model, radio)
    cutoff_m = float(cutoff_m)
    if index is None and not math.isinf(cutoff_m):
        index = GridIndex(pos, cell_size=cutoff_m)
    power = build_sparse_power(pos, tx_power_mw, model, cutoff_m, index=index)
    if far_field == "packing":
        floor = far_field_floor_mw(
            power.n, tx_power_mw, model, cutoff_m, alpha=radio.alpha
        )
    elif far_field == "none":
        floor = None
    else:
        raise ValueError(
            f"far_field must be 'packing' or 'none', got {far_field!r}"
        )
    return SparseGainModel(
        power=power, cutoff_m=cutoff_m, floor_mw=floor, index=index
    )
