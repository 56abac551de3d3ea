"""Link sets: the directed edges to be scheduled, with their demands.

The paper establishes a one-to-one mapping between non-gateway nodes and
routing-forest edges: the child node (higher depth) is the *head* of its
edge and transmits toward its parent (the *tail*).  A :class:`LinkSet`
captures an arbitrary collection of directed links with integer demands —
the protocols work on forests, but "up to straightforward modifications, the
protocols ... can be used to schedule an arbitrary link set", and so can
everything here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.routing.forest import RoutingForest


@dataclass(frozen=True)
class LinkSet:
    """Directed links ``heads[k] -> tails[k]`` with demands ``demand[k]``.

    ``ids[k]`` is the unique identifier of the link's head node, used by the
    protocols for leader election and by GreedyPhysical's default edge
    ordering.  By default ids equal head node indices.
    """

    heads: np.ndarray
    tails: np.ndarray
    demand: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        heads = np.asarray(self.heads, dtype=np.intp)
        tails = np.asarray(self.tails, dtype=np.intp)
        demand = np.asarray(self.demand, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.int64)
        if not (heads.shape == tails.shape == demand.shape == ids.shape):
            raise ValueError("heads, tails, demand, ids must share one shape")
        if heads.ndim != 1:
            raise ValueError("link arrays must be 1-D")
        if np.any(heads == tails):
            raise ValueError("self-loop links are not allowed")
        if np.any(demand < 0):
            raise ValueError("demands must be non-negative")
        if np.unique(ids).size != ids.size:
            raise ValueError("link ids must be unique")
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "ids", ids)

    @property
    def n_links(self) -> int:
        return self.heads.shape[0]

    @cached_property
    def total_demand(self) -> int:
        """``TD``: total traffic demand across all links."""
        return int(self.demand.sum())

    @cached_property
    def link_of_node(self) -> np.ndarray:
        """Index of the link each node heads, -1 where it heads none.

        Only defined for forest link sets (one link per head node)."""
        links = np.arange(self.n_links, dtype=np.intp)
        n_nodes = int(max(self.heads.max(initial=0), self.tails.max(initial=0))) + 1
        of_node = np.full(n_nodes, -1, dtype=np.intp)
        of_node[self.heads] = links
        twice = np.flatnonzero(of_node[self.heads] != links)
        if twice.size:
            raise ValueError(
                f"node {int(self.heads[twice[0]])} heads more than one link; "
                "per-head lookup is only defined for forest link sets"
            )
        return of_node

    def next_links(self) -> np.ndarray:
        """Per-link index of the next link up the forest, -1 at gateways.

        ``next_links()[k]`` is the link whose head is link ``k``'s tail —
        the unique relay hop toward the gateway — or ``-1`` when the tail
        is a gateway.  Only defined for forest link sets (delegates the
        contract check to :meth:`link_of_node`).  The single next-hop
        derivation shared by queue relaying
        (:class:`~repro.traffic.queues.LinkQueues`) and control-plane
        depth pricing (:func:`~repro.core.controlplane.forest_depths`).
        """
        return self.link_of_node[self.tails]

    def subset(self, indices: np.ndarray) -> "LinkSet":
        """A new LinkSet containing only the given link indices."""
        idx = np.asarray(indices, dtype=np.intp)
        return LinkSet(
            heads=self.heads[idx],
            tails=self.tails[idx],
            demand=self.demand[idx],
            ids=self.ids[idx],
        )


def forest_link_set(forest: RoutingForest, link_demand: np.ndarray) -> LinkSet:
    """The paper's link set: one edge per non-gateway node, child -> parent,
    each identified by its head node's index.

    Parameters
    ----------
    forest:
        The routing forest.
    link_demand:
        ``(n_nodes,)`` aggregated link demands indexed by head node (from
        :func:`repro.routing.demand.aggregate_demand`).
    """
    heads = forest.edge_heads
    demand = np.asarray(link_demand, dtype=np.int64)
    if demand.shape != (forest.n_nodes,):
        raise ValueError(
            f"link_demand must have shape ({forest.n_nodes},), got {demand.shape}"
        )
    return LinkSet(
        heads=heads,
        tails=forest.parent[heads],
        demand=demand[heads],
        ids=heads.astype(np.int64),
    )
