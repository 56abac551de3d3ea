"""Pairwise channel-gain and received-power matrices.

These matrices are the central physical object in the reproduction: entry
``P[i, j]`` of the received-power matrix is the power (mW) that node ``j``
collects when node ``i`` transmits at its configured power.  Every SINR
computation, carrier-sense test, and graph construction reads from them.

Matrices are float64 and distance-law ones are assembled in row blocks,
so the transient ``(n, n, 2)`` delta tensor (3× the matrix itself) never
materializes — peak memory is the output plus one thin block.  Deployments
too large for an ``(n, n)`` matrix take the sparse path
(:mod:`repro.phy.sparse`).
"""

from __future__ import annotations

import numpy as np

from repro.phy.propagation import PropagationModel
from repro.util.validation import check_finite_array

#: Rows per block when assembling large matrices; bounds the transient
#: delta tensor to ``_BLOCK_ROWS * n * 2`` floats regardless of ``n``.
_BLOCK_ROWS = 2048


def distance_matrix(positions: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix from an ``(n, 2)`` position array."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    n = pos.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        deltas = pos[lo:hi, None, :] - pos[None, :, :]
        out[lo:hi] = np.sqrt((deltas**2).sum(axis=2))
    return out


def gain_matrix(positions: np.ndarray, model: PropagationModel) -> np.ndarray:
    """Channel power-gain matrix ``G[i, j]`` for all node pairs: the
    distance law evaluated on the distance matrix, a row block at a time.
    The diagonal (self-gain, zero distance) clamps to the reference gain and
    is never used for communication.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    n = pos.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        deltas = pos[lo:hi, None, :] - pos[None, :, :]
        out[lo:hi] = model.gain(np.sqrt((deltas**2).sum(axis=2)))
    return out


def received_power_matrix(
    positions: np.ndarray,
    tx_power_mw: np.ndarray,
    model: PropagationModel,
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
    out = gain_matrix(pos, model)
    out *= tx[:, None]  # in place: gain_matrix's return is ours to reuse
    return out
