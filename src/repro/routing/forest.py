"""Routing forest construction (Section II).

Each non-gateway node joins the reverse tree ``RT`` of a nearest gateway:
it picks, uniformly at random, a parent among its communication-graph
neighbors that are one hop closer to a gateway ("minimum hop distance to the
root, breaking ties randomly").  The union of the reverse trees is the
routing forest ``RF``; every forest edge is a communication-graph edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.topology.commgraph import adjacency_csr, csr_neighbors_of
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class RoutingForest:
    """A forest of reverse trees rooted at the gateways.

    Attributes
    ----------
    parent:
        ``(n,)`` int array; ``parent[v]`` is the next hop of ``v`` toward its
        gateway, or ``-1`` when ``v`` is a gateway (tree root).
    depth:
        ``(n,)`` int array; hop distance to the root of ``v``'s tree.
    gateways:
        Sorted array of gateway node indices.
    """

    parent: np.ndarray
    depth: np.ndarray
    gateways: np.ndarray

    def __post_init__(self) -> None:
        parent = np.asarray(self.parent, dtype=np.intp)
        depth = np.asarray(self.depth, dtype=np.intp)
        gateways = np.asarray(self.gateways, dtype=np.intp)
        if parent.shape != depth.shape or parent.ndim != 1:
            raise ValueError("parent and depth must be equal-length 1-D arrays")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "gateways", gateways)

    @property
    def n_nodes(self) -> int:
        return self.parent.shape[0]

    @cached_property
    def edge_heads(self) -> np.ndarray:
        """Non-gateway nodes, each the *head* (sender) of its tree edge.

        The paper establishes a one-to-one mapping between non-root nodes and
        forest edges; the node at higher depth (the child) owns the edge and
        transmits on it toward its parent.
        """
        return np.flatnonzero(self.parent >= 0).astype(np.intp)

    def validate(self, comm_adj: np.ndarray | None = None) -> None:
        """Check structural invariants; raise :class:`ValueError` if violated.

        * gateways are exactly the parentless nodes;
        * depths increase by one along parent edges;
        * every tree edge is a communication edge (when ``comm_adj`` given).
        """
        roots = np.flatnonzero(self.parent < 0)
        if not np.array_equal(np.sort(roots), np.sort(self.gateways)):
            raise ValueError("gateways do not match parentless nodes")
        if np.any(self.depth[self.gateways] != 0):
            raise ValueError("gateway depths must be zero")
        for v in self.edge_heads:
            p = self.parent[v]
            if self.depth[v] != self.depth[p] + 1:
                raise ValueError(f"depth of {v} is not parent depth + 1")
            if comm_adj is not None and not comm_adj[v, p]:
                raise ValueError(f"tree edge ({v}, {p}) is not a communication edge")


def build_routing_forest(
    comm_adj: np.ndarray,
    gateways: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> RoutingForest:
    """Build the routing forest by multi-source BFS from the gateways.

    Every node's depth is its hop distance to the *nearest* gateway; its
    parent is drawn uniformly at random among neighbors at depth one less
    (this simultaneously resolves both tie kinds in the paper: which tree to
    join and which minimal-hop parent to use).

    Raises :class:`ValueError` if some node cannot reach any gateway.
    """
    return build_routing_forest_csr(*adjacency_csr(comm_adj), gateways, rng)


def build_routing_forest_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    gateways: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> RoutingForest:
    """:func:`build_routing_forest` over a CSR adjacency, without the dense
    matrix.

    Neighbor lists are sorted (:func:`~repro.topology.commgraph.communication_csr`,
    :func:`~repro.topology.commgraph.adjacency_csr`) and nodes draw in
    ascending order, so equal graphs and equal generators give equal forests
    whichever form the graph arrives in.
    """
    n = indptr.shape[0] - 1
    gws = np.asarray(gateways, dtype=np.intp)
    if gws.size == 0:
        raise ValueError("at least one gateway is required")
    if np.unique(gws).size != gws.size:
        raise ValueError("gateway indices must be distinct")
    if np.any((gws < 0) | (gws >= n)):
        raise IndexError("gateway index out of range")
    generator = ensure_rng(rng)

    depth = np.full(n, -1, dtype=np.intp)
    depth[gws] = 0
    frontier = gws
    level = 0
    while frontier.size:
        reached = csr_neighbors_of(indptr, indices, frontier)
        frontier = reached[depth[reached] < 0]
        level += 1
        depth[frontier] = level
    if np.any(depth < 0):
        unreachable = np.flatnonzero(depth < 0).tolist()
        raise ValueError(f"nodes {unreachable} cannot reach any gateway")

    # Parent candidates of every node at once: its neighbors one level up,
    # in neighbor (ascending) order.  One bounded draw per non-gateway node,
    # in node order, consumes the generator exactly as a per-node
    # ``generator.choice(candidates)`` would.
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    up = depth[indices] == depth[rows] - 1
    counts = np.bincount(rows[up], minlength=n)
    heads = np.flatnonzero(depth > 0)
    picks = generator.integers(0, counts[heads])
    parent = np.full(n, -1, dtype=np.intp)
    parent[heads] = indices[up][(np.cumsum(counts) - counts)[heads] + picks]
    return RoutingForest(parent=parent, depth=depth, gateways=np.sort(gws))
