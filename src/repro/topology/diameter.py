"""Interference diameter (Definition 2) and neighbor density (Definition 6).

The interference diameter ``ID(GS)`` — the maximum directed hop distance in
the sensitivity graph — lower-bounds the ``K`` parameter of the SCREAM
primitive: a K-slot SCREAM implements a correct network-wide OR iff
``K >= ID(GS)``.  Exact values come from all-pairs BFS; the closed-form
bounds of Theorems 2 and 3 live in :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

import numpy as np


def hop_distance_matrix(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs directed hop distances (``inf`` where unreachable).

    ``out[u, v]`` is the minimum number of directed edges on a path from
    ``u`` to ``v``; 0 on the diagonal.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if adj.shape[0] == 0:
        return np.zeros((0, 0))
    # Imported here, not at module level: scipy costs ~0.25 s and ~25 MiB to
    # load, and the sparse set-up path never calls this function.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    sparse = csr_matrix(adj.astype(np.int8))
    return shortest_path(sparse, method="D", directed=True, unweighted=True)


def interference_diameter(adjacency: np.ndarray) -> float:
    """``ID(GS)``: max hop distance over all ordered node pairs.

    Returns ``inf`` when the graph is not strongly connected, matching
    Definition 2.  A single-node graph has diameter 0.
    """
    dist = hop_distance_matrix(adjacency)
    if dist.size == 0:
        return 0.0
    longest = dist.max()
    return float(longest)


def neighbor_density(adjacency: np.ndarray) -> float:
    """Average node degree ``ρ(G)`` of an undirected graph (Definition 6)."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        return 0.0
    return float(adj.sum() / n)
