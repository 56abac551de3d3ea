"""Pairwise channel-gain and received-power matrices.

These matrices are the central physical object in the reproduction: entry
``P[i, j]`` of the received-power matrix is the power (mW) that node ``j``
collects when node ``i`` transmits at its configured power.  Every SINR
computation, carrier-sense test, and graph construction reads from them.

Two scaling controls, both opt-in and default-neutral:

* ``dtype=np.float32`` halves the dense footprint for mid-size sweeps that
  don't need the sparse path (verdict-identity on the reference grid is
  pinned by the unit suite — float32 mantissas dwarf the SINR margins
  there, but it is an approximation and stays opt-in);
* distance-law matrices are assembled in row blocks, so the transient
  ``(n, n, 2)`` delta tensor (3× the matrix itself) never materializes —
  peak memory is the output plus one thin block.
"""

from __future__ import annotations

import numpy as np

from repro.phy.propagation import PropagationModel
from repro.util.validation import check_finite_array

#: Rows per block when assembling large matrices; bounds the transient
#: delta tensor to ``_BLOCK_ROWS * n * 2`` floats regardless of ``n``.
_BLOCK_ROWS = 2048


def distance_matrix(
    positions: np.ndarray, dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """Euclidean distance matrix from an ``(n, 2)`` position array.

    Distances are always computed in float64 and rounded once into
    ``dtype`` on store, so a float32 matrix is the rounding of the exact
    one, not the result of accumulating error in float32 arithmetic.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    n = pos.shape[0]
    out = np.empty((n, n), dtype=dtype)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        deltas = pos[lo:hi, None, :] - pos[None, :, :]
        out[lo:hi] = np.sqrt((deltas**2).sum(axis=2))
    return out


def gain_matrix(
    positions: np.ndarray,
    model: PropagationModel,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Channel power-gain matrix ``G[i, j]`` for all node pairs.

    Models carrying per-pair state (frozen shadowing, replayed archives)
    expose ``pair_gain`` and are queried through it; pure distance-law
    models are evaluated on the distance matrix.  The diagonal (self-gain,
    zero distance) clamps to the reference gain and is never used for
    communication.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    pair_gain = getattr(model, "pair_gain", None)
    if pair_gain is not None:
        # Per-pair state is identified by the full index grid; evaluate
        # dense and round once into the requested storage dtype.
        return np.asarray(pair_gain(distance_matrix(pos)), dtype=dtype)
    n = pos.shape[0]
    out = np.empty((n, n), dtype=dtype)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        deltas = pos[lo:hi, None, :] - pos[None, :, :]
        out[lo:hi] = model.gain(np.sqrt((deltas**2).sum(axis=2)))
    return out


def received_power_matrix(
    positions: np.ndarray,
    tx_power_mw: np.ndarray,
    model: PropagationModel,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Received-power matrix ``P[i, j] = tx_power[i] * gain(i, j)`` in mW."""
    tx = np.asarray(tx_power_mw, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if tx.ndim != 1 or tx.shape[0] != pos.shape[0]:
        raise ValueError(
            f"tx_power_mw must have one entry per node: got {tx.shape} powers "
            f"for {pos.shape[0]} nodes"
        )
    check_finite_array("positions", pos)
    check_finite_array("tx_power_mw", tx)
    if np.any(tx <= 0):
        raise ValueError("transmit powers must be strictly positive")
    out = gain_matrix(pos, model, dtype=dtype)
    out *= tx[:, None]  # in place: gain_matrix's return is ours to reuse
    return out
