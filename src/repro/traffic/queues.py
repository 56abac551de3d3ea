"""Per-link FIFO backlogs along the routing forest.

Packets enter the network at their source node's own tree link (the paper's
one-to-one node/edge mapping), are relayed link-by-link toward the gateway,
and leave the system when the link into a gateway serves them.  The hot
state — the per-link backlog vector consulted every served slot — is a
single numpy ``int64`` array; arrivals enter through one push per *source
node with traffic* (a batch, however many packets it generated).  FIFO
order and per-packet delays are tracked beside the backlog vector in
per-link batch queues (``[birth_slot, count]`` pairs), which stay tiny
because same-birth packets coalesce.

Conservation invariant (asserted by the unit tests): at any time,
``arrivals_total == delivered_total + backlog.sum()`` — every packet is in
exactly one queue until the gateway link delivers it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.scheduling.links import LinkSet


class LinkQueues:
    """FIFO queues, one per directed link of a forest :class:`LinkSet`.

    Every delivered packet is logged as one entry of the aligned
    ``delays`` / ``births`` / ``sources`` lists — the single account of
    deliveries that per-flow delay attribution and the regional
    controllers' delivered counts read.

    Parameters
    ----------
    links:
        A *forest* link set (one link per head node): relaying needs the
        unique next link up the tree, which is looked up through
        ``links.link_of_head``.
    """

    def __init__(self, links: LinkSet):
        self.links = links
        n = links.n_links
        self._by_head = links.link_of_head  # raises for non-forest link sets
        # next_link[k]: the link whose head is k's tail, or -1 when the tail
        # is a gateway (delivery).
        self.next_link = links.next_links()
        self.backlog = np.zeros(n, dtype=np.int64)
        #: Cumulative packets served (transmitted) per link — the spatial
        #: breakdown of ``served_total``.  Regional controllers difference
        #: it to attribute served work to their own links exactly instead
        #: of proxying by emission share.
        self.served_by_link = np.zeros(n, dtype=np.int64)
        # Batches are [birth_slot, count, source_link]: the entry link is
        # carried through every relay so deliveries can be attributed back
        # to the source that injected them (the flow-session layer's SLA
        # accounting keys on it).  Same-birth batches from different
        # sources stay separate, which changes nothing observable — all
        # same-birth packets at a link are interchangeable.
        self._fifo: list[deque[list[int]]] = [deque() for _ in range(n)]
        self.arrivals_total = 0
        self.delivered_total = 0
        self.served_total = 0  # packet-hops: every successful transmission
        #: Link-slot memberships that actually transmitted (>= 1 packet).
        #: ``served_total / plays_total`` is the realized mean service rate
        #: in packets per play — exactly 1.0 under fixed-rate serving.
        self.plays_total = 0
        self.delays: list[int] = []  # per delivered packet, in slots
        self.births: list[int] = []  # per delivered packet, its birth slot
        self.sources: list[int] = []  # per delivered packet, its entry link
        #: Set by :meth:`mark_unusable` when an engine aborted mid-epoch
        #: with this object half-mutated; ``None`` means healthy.
        self.unusable_reason: str | None = None

    def mark_unusable(self, reason: str) -> None:
        """Poison these queues: an engine died between booking arrivals and
        serving them, so the conservation invariant no longer describes a
        completed prefix of epochs.  Every subsequent :meth:`arrive` /
        :meth:`serve_slot` raises ``RuntimeError`` carrying ``reason``
        rather than quietly extending a corrupt trace."""
        self.unusable_reason = str(reason)

    def _check_usable(self) -> None:
        if self.unusable_reason is not None:
            raise RuntimeError(
                f"queues are unusable — a run aborted mid-epoch: {self.unusable_reason}"
            )

    @property
    def n_links(self) -> int:
        return self.links.n_links

    def total_backlog(self) -> int:
        return int(self.backlog.sum())

    def arrive(self, node_arrivals: np.ndarray, time: int) -> int:
        """Enqueue per-node arrivals at their source links; return the count.

        ``node_arrivals`` is indexed by node; nodes that head no link
        (gateways) must have zero arrivals.
        """
        self._check_usable()
        counts = np.asarray(node_arrivals, dtype=np.int64)
        if np.any(counts < 0):
            raise ValueError("arrival counts must be non-negative")
        by_head = self._by_head
        total = 0
        for node in np.flatnonzero(counts):
            k = by_head.get(int(node))
            if k is None:
                raise ValueError(
                    f"node {int(node)} heads no link but generated "
                    f"{int(counts[node])} packets (is it a gateway?)"
                )
            self._push(k, int(time), int(counts[node]))
            total += int(counts[node])
        self.arrivals_total += total
        return total

    def serve_slot(
        self,
        link_indices: np.ndarray,
        time: int,
        rates: np.ndarray | None = None,
    ) -> int:
        """Serve one slot: every listed backlogged link forwards packets.

        With ``rates=None`` (fixed-rate, the seed contract) every
        backlogged member forwards exactly one packet.  With a ``rates``
        array (aligned with ``link_indices``, packets per slot from the
        link's MCS tier) member ``k`` forwards ``min(rates[k],
        backlog[k])`` packets — the multi-rate serving contract.  An
        all-ones ``rates`` array is behaviourally identical to ``None``.

        All transmissions in the slot are simultaneous: packets are popped
        first and routed after, so a packet cannot traverse two hops within
        one slot.  Returns the number of packets served (packet-hops).
        """
        self._check_usable()
        idx = np.asarray(link_indices, dtype=np.intp)
        moves: list[tuple[int, int, int]] = []  # (next link or -1, birth, source)
        if rates is None:
            ready = idx[self.backlog[idx] > 0]
            self.served_by_link[ready] += 1  # member links are unique per slot
            for k in ready:
                birth, source = self._pop(int(k))
                moves.append((int(self.next_link[k]), birth, source))
            self.plays_total += len(ready)
        else:
            r = np.asarray(rates, dtype=np.int64)
            if r.shape != idx.shape:
                raise ValueError(
                    f"rates must align with link_indices: {r.shape} vs {idx.shape}"
                )
            if np.any(r < 0):
                raise ValueError("rates must be non-negative")
            counts = np.minimum(r, self.backlog[idx])
            active = counts > 0
            self.served_by_link[idx[active]] += counts[active]
            self.plays_total += int(active.sum())
            for k, count in zip(idx[active], counts[active]):
                nxt = int(self.next_link[k])
                for _ in range(int(count)):
                    birth, source = self._pop(int(k))
                    moves.append((nxt, birth, source))
        for nxt, birth, source in moves:
            if nxt < 0:
                self.delivered_total += 1
                self.delays.append(int(time) - birth + 1)
                self.births.append(birth)
                self.sources.append(source)
            else:
                self._push(nxt, birth, 1, source)
        self.served_total += len(moves)
        return len(moves)

    def delay_array(self) -> np.ndarray:
        """Delays of all delivered packets so far, in slots."""
        return np.asarray(self.delays, dtype=np.int64)

    def check_conservation(self) -> None:
        """Raise :class:`AssertionError` if any packet was lost or duplicated."""
        queued = self.total_backlog()
        if self.arrivals_total != self.delivered_total + queued:
            raise AssertionError(
                f"packet conservation violated: {self.arrivals_total} arrived, "
                f"{self.delivered_total} delivered, {queued} queued"
            )

    def _push(self, k: int, birth: int, count: int, source: int | None = None) -> None:
        src = k if source is None else source
        fifo = self._fifo[k]
        if fifo and fifo[-1][0] == birth and fifo[-1][2] == src:
            fifo[-1][1] += count
        else:
            fifo.append([birth, count, src])
        self.backlog[k] += count

    def _pop(self, k: int) -> tuple[int, int]:
        """Remove the oldest packet from queue ``k``; return (birth, source)."""
        fifo = self._fifo[k]
        if not fifo:
            raise IndexError(f"queue {k} is empty")
        head = fifo[0]
        head[1] -= 1
        birth = head[0]
        source = head[2]
        if head[1] == 0:
            fifo.popleft()
        self.backlog[k] -= 1
        return birth, source
