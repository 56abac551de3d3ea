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

    A level-synchronous BFS from every source at once — the all-sources
    form of :func:`repro.core.scream.scream_flood`'s relay step: one hop
    turns the frontier into ``(frontier @ adj > 0) & ~reached``.  The
    product is a float32 matmul of 0/1 entries, whose sums are exact
    integers below 2**24, so the ``> 0`` test is exact.  Each hop
    multiplies only the sources still expanding, through the nodes on
    their frontiers, into the nodes some of them have not reached.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    reached = np.eye(n, dtype=bool)
    dist = np.where(reached, 0.0, np.inf)
    # Hop 1 is the adjacency itself (self-loops excepted).
    frontier = adj & ~reached
    weights = adj.astype(np.float32)
    # A shortest path has at most n - 1 hops.
    for hop in range(1, n):
        reached |= frontier
        dist[frontier] = hop
        rows = np.flatnonzero(frontier.any(axis=1))
        unreached = ~reached[rows]
        cols = np.flatnonzero(unreached.any(axis=0))
        if cols.size == 0:
            break
        via = np.flatnonzero(frontier[rows].any(axis=0))
        step = frontier[np.ix_(rows, via)].astype(np.float32)
        hits = (step @ weights[np.ix_(via, cols)] > 0) & unreached[:, cols]
        frontier = np.zeros_like(reached)
        frontier[np.ix_(rows, cols)] = hits
    return dist


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
