"""Communication graph construction (Section II).

An edge ``(u, v)`` belongs to the communication graph iff the link closes in
*both* directions in the absence of any other transmission: the data packet
and the link-layer ACK must each clear the SINR threshold against background
noise alone.  Unidirectional links are discarded, exactly as the paper does
("we assume that unidirectional links are not used even if they are present").
"""

from __future__ import annotations

import numpy as np

from repro.util.ranges import expand_ranges


def communication_adjacency(
    power: np.ndarray, noise_mw: float, beta: float
) -> np.ndarray:
    """Boolean symmetric adjacency of the communication graph.

    Parameters
    ----------
    power:
        ``(n, n)`` received-power matrix in mW.
    noise_mw, beta:
        Background noise and SINR decode threshold.

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` boolean matrix, False on the diagonal, symmetric.
    """
    p = np.asarray(power, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"power must be a square matrix, got shape {p.shape}")
    if noise_mw <= 0 or beta <= 0:
        raise ValueError("noise_mw and beta must be positive")
    forward = p / noise_mw >= beta
    adjacency = forward & forward.T
    np.fill_diagonal(adjacency, False)
    return adjacency


def communication_csr(
    power,
    noise_mw: float,
    beta: float,
    budget_mw: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR communication adjacency straight from sparse power storage.

    The sparse-path equivalent of :func:`communication_adjacency`: an edge
    ``(u, v)`` exists iff both directions decode against noise alone —
    plus, when ``budget_mw`` is given (the sparse backend's far-field
    floor), the per-receiving-node budget, so every returned edge passes
    the floored model's standalone screen and GreedyPhysical never rejects
    a forest edge.

    ``power`` must be a :class:`~repro.phy.sparse.SparsePowerMatrix` whose
    cutoff is at least the communication range — entries beyond the cutoff
    read as zero and would silently drop edges otherwise (the default
    carrier-sense cutoff is ~3× the communication range, comfortably safe).

    Returns ``(indptr, indices)``: neighbors of node ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``, ascending — the same candidate
    order a dense ``np.flatnonzero(adj[v])`` yields, which the forest
    builder's RNG-stream equivalence relies on.
    """
    if not getattr(power, "is_sparse_power", False):
        raise TypeError("communication_csr needs a SparsePowerMatrix")
    if noise_mw <= 0 or beta <= 0:
        raise ValueError("noise_mw and beta must be positive")
    n = power.n
    rows, cols, vals = power.entries()
    keys = power.keys  # ascending: entries are row-major
    if budget_mw is None:
        threshold = beta * noise_mw
        qual = (vals >= threshold) & (rows != cols)
    else:
        b = np.asarray(budget_mw, dtype=float)
        qual = (vals >= beta * (noise_mw + b[cols])) & (rows != cols)
    qkeys = keys[qual]  # sorted: a subset of the sorted key array
    qrows = rows[qual]
    qcols = cols[qual]
    if qkeys.size == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.intp)
    rev = qcols.astype(np.int64) * n + qrows
    pos = np.searchsorted(qkeys, rev)
    np.clip(pos, 0, qkeys.size - 1, out=pos)
    mutual = qkeys[pos] == rev
    erows = qrows[mutual]
    ecols = qcols[mutual]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(erows, minlength=n), out=indptr[1:])
    return indptr, ecols


def csr_neighbors_of(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Unique neighbors (ascending) of a node set in a CSR adjacency."""
    f = np.asarray(nodes, dtype=np.intp)
    return np.unique(indices[expand_ranges(indptr[f], indptr[f + 1])[1]])


def is_connected_csr(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Is the undirected CSR graph connected?  BFS from node 0."""
    n = indptr.shape[0] - 1
    if n == 0:
        return True
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.asarray([0], dtype=np.intp)
    while frontier.size:
        reached = csr_neighbors_of(indptr, indices, frontier)
        new = reached[~visited[reached]]
        visited[new] = True
        frontier = new
    return bool(visited.all())


def adjacency_csr(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of a dense boolean adjacency, each node's
    neighbors ascending — the order ``np.flatnonzero(adj[v])`` yields."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def is_connected(adjacency: np.ndarray) -> bool:
    """Is the (undirected) graph connected?  BFS from node 0."""
    return is_connected_csr(*adjacency_csr(adjacency))
