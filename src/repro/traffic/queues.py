"""Per-link FIFO backlogs along the routing forest.

Packets enter the network at their source node's own tree link (the paper's
one-to-one node/edge mapping), are relayed link-by-link toward the gateway,
and leave the system when the link into a gateway serves them.  Every queued
packet is one row of three flat arrays (link, birth slot, source link) kept
sorted by (link, FIFO order), with links numbered internally deepest forest
level first, so a level's packets are one contiguous slice.  A whole round
is served by :meth:`LinkQueues.play` in a constant number of numpy passes
per forest level (DESIGN.md §6), never slot by slot.

Conservation invariant (asserted by the unit tests): at any time,
``arrivals_total == delivered_total + backlog.sum()`` — every packet is in
exactly one queue until the gateway link delivers it.
"""

from __future__ import annotations

import numpy as np

from repro.core.controlplane import forest_depths
from repro.scheduling.links import LinkSet


def _by_link(link: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """``link`` and its aligned ``columns``, stably sorted by link."""
    order = np.argsort(link, kind="stable")
    return [column[order] for column in (link, *columns)]


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
        unique next link up the tree (``links.next_links()``).
    """

    def __init__(self, links: LinkSet):
        self.links = links
        n = links.n_links
        # next_link[k]: the link whose head is k's tail, or -1 when the tail
        # is a gateway (delivery).
        self.next_link = links.next_links()  # raises for non-forest link sets
        # Internal numbering, deepest forest level first: a relay only ever
        # moves one level up, so a level served after the one below it has
        # seen every packet it will get.  ``_order`` maps internal number ->
        # link index, ``_rank`` back; level i is ``_levels[i]:_levels[i + 1]``.
        depth = forest_depths(links)
        self._order = np.argsort(-depth, kind="stable")
        self._rank = np.empty(n, dtype=np.intp)
        self._rank[self._order] = np.arange(n)
        self._levels = np.r_[0, np.flatnonzero(np.diff(depth[self._order])) + 1, n]
        up = self.next_link[self._order]
        self._next = np.where(up >= 0, self._rank[up], -1)
        self.backlog = np.zeros(n, dtype=np.int64)
        #: Cumulative packets served (transmitted) per link — the spatial
        #: breakdown of ``served_total``.  Regional controllers difference
        #: it to attribute served work to their own links exactly instead
        #: of proxying by emission share.
        self.served_by_link = np.zeros(n, dtype=np.int64)
        # The queued packets, sorted by (internal link number, FIFO order).
        # The entry link is carried through every relay so deliveries can be
        # attributed back to the source that injected them (the flow-session
        # layer's SLA accounting keys on it).
        self._link = np.empty(0, dtype=np.intp)
        self._birth = np.empty(0, dtype=np.int64)
        self._source = np.empty(0, dtype=np.int64)
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
        :meth:`play` raises ``RuntimeError`` carrying ``reason``
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
        (gateways) must have zero arrivals.  Each source's packets join the
        back of its own link's queue: one stable sort, however many sources.
        """
        self._check_usable()
        counts = np.asarray(node_arrivals, dtype=np.int64)
        if np.any(counts < 0):
            raise ValueError("arrival counts must be non-negative")
        nodes = np.flatnonzero(counts)
        of_node = self.links.link_of_node
        k = np.where(nodes < of_node.size, of_node.take(nodes, mode="clip"), -1)
        if np.any(k < 0):
            node = int(nodes[k < 0][0])
            raise ValueError(
                f"node {node} heads no link but generated "
                f"{int(counts[node])} packets (is it a gateway?)"
            )
        counts = counts[nodes]
        total = int(counts.sum())
        self._link, self._birth, self._source = _by_link(
            np.concatenate([self._link, np.repeat(self._rank[k], counts)]),
            np.concatenate([self._birth, np.full(total, time, dtype=np.int64)]),
            np.concatenate([self._source, np.repeat(k, counts)]),
        )
        self.backlog[k] += counts
        self.arrivals_total += total
        return total

    def play(
        self,
        members: np.ndarray,
        ends: list[int],
        start: int,
        epoch_slots: int,
        overhead_slots: int,
        rates: np.ndarray | None = None,
    ) -> int:
        """Play a round cyclically over one epoch's data slots; return the
        packet-hops served.

        The round is ``members``, every slot's link indices back to back,
        slot ``t`` ending at ``ends[t]``.  Slots ``overhead_slots ..
        epoch_slots - 1`` of the epoch starting at slot ``start`` play it
        cyclically from its first slot.  With ``rates=None`` (fixed-rate,
        the seed contract) every backlogged member forwards exactly one
        packet per play; with ``rates`` (aligned with ``members``, packets
        per slot from the link's MCS tier) a member forwards ``min(rate,
        backlog)`` — the multi-rate serving contract, of which all-ones
        rates are the fixed-rate case.

        All transmissions in a slot are simultaneous: a packet relayed in
        slot t joins the next queue for slot t + 1, behind what is already
        there, in the order (position of its link in the slot, FIFO rank) —
        so it cannot traverse two hops within one slot.

        The epoch is not stepped through.  The round is expanded into a
        table of plays (link, slot time, position in slot, rate) sorted by
        (link, slot time); then, deepest forest level first, each level's
        queued packets are merged with the relays the level below emitted,
        ``A_j`` = packets present at play j is one ``searchsorted``, the
        service recursion ``D_j = min(D_{j-1} + r_j, A_j)`` is solved per
        link as ``D_j = R_j + min(0, min_{i<=j}(A_i - R_i))`` (``R`` the
        running sum of rates), and the packet of FIFO rank ρ leaves at its
        link's first play with ``D_j > ρ``.  A malformed round — rates that
        do not align or are negative, an unknown link, a slot listing a
        link twice — raises before anything is mutated.
        """
        self._check_usable()
        members = np.asarray(members, dtype=np.intp)
        if rates is not None and np.shape(rates) != members.shape:
            given = np.size(rates)
            raise ValueError(f"rates must align with members: {given} for {members.size}")
        window = epoch_slots - overhead_slots
        # Only the first ``window`` slots of a longer round ever play.
        ends = ends[: max(window, 0)]
        n = len(ends)
        members = members[: ends[-1] if n else 0]
        if rates is None:
            rates = np.ones(members.size, dtype=np.int64)
        else:
            rates = np.asarray(rates, dtype=np.int64)[: members.size]
            if np.any(rates < 0):
                raise ValueError("rates must be non-negative")
        link = self._rank[members]  # IndexError for a link that does not exist
        if members.size == 0:
            return 0
        sizes = np.diff([0, *ends])

        # The plays, in the order they happen: (slot time, position in slot).
        slot_of = np.repeat(np.arange(n), sizes)
        cycles, extra = divmod(window, n)
        happens = np.arange(cycles * members.size + int(sizes[:extra].sum()))
        cycle, member = np.divmod(happens, members.size)
        key = link[member] * window + slot_of[member] + cycle * n
        by_key = np.argsort(key)  # a play's value here is its rank in that order
        key = key[by_key]
        twice = np.flatnonzero(key[1:] == key[:-1])
        if twice.size:
            k, t = divmod(int(key[twice[0]]), window)
            raise ValueError(
                f"slot {t % n} lists link {int(self._order[k])} more than once"
            )
        p_link, p_time = np.divmod(key, window)  # time counts from the first data slot
        p_rate = rates[member[by_key]]
        play_at = np.searchsorted(p_link, self._levels)
        held_at = np.searchsorted(self._link, self._levels)

        # Columns of a level's queue: link, first slot time it may leave in,
        # birth, source.  ``moved`` is what the level below handed up.
        moved = nothing = [np.empty(0, dtype=np.intp)] * 4
        kept = []
        sent_by = np.zeros(self.n_links, dtype=np.int64)  # by internal number
        plays_used = 0
        for level in range(self._levels.size - 1):
            held = slice(held_at[level], held_at[level + 1])
            q_link = self._link[held]
            queue = [q_link, np.zeros_like(q_link), self._birth[held], self._source[held]]
            arrived, moved = moved, nothing
            if arrived[0].size:
                queue = _by_link(*(np.concatenate(pair) for pair in zip(queue, arrived)))
            q_link, q_free, q_birth, q_source = queue
            plays = slice(play_at[level], play_at[level + 1])
            pl, pt, pr = p_link[plays], p_time[plays], p_rate[plays]
            if pl.size == 0 or q_link.size == 0:
                kept.append((q_link, q_birth, q_source))
                continue
            first = np.searchsorted(q_link, pl)  # where each play's link starts
            present = (
                np.searchsorted(
                    q_link * (window + 1) + q_free, pl * (window + 1) + pt, side="right"
                )
                - first
            )
            opens = np.ones(pl.size, dtype=bool)  # a link's first play
            opens[1:] = pl[1:] != pl[:-1]
            segment = np.cumsum(opens) - 1
            granted = np.cumsum(pr)
            granted -= (granted - pr)[opens][segment]
            slack = present - granted
            # A stair descending by more than slack's range per link restarts
            # the running minimum at every link's first play.
            stair = segment * (int(slack.max()) - int(slack.min()) + 1)
            done = granted + np.minimum(np.minimum.accumulate(slack - stair) + stair, 0)
            sent = done.copy()
            sent[1:] -= np.where(opens[1:], 0, done[:-1])
            np.add.at(sent_by, pl, sent)
            plays_used += int(np.count_nonzero(sent))
            # ``done + first`` is non-decreasing across links, so one search
            # finds every packet's play; a miss lands on another link's.
            at = np.searchsorted(done + first, np.arange(q_link.size), side="right")
            gone = np.append(pl, -1)[at] == q_link
            kept.append((q_link[~gone], q_birth[~gone], q_source[~gone]))
            out = np.flatnonzero(gone)
            at = at[out]
            # Hand over by (next link, slot time, position in slot, FIFO
            # rank): the order the slots would have pushed them in.
            up = self._next[q_link[out]]
            order = np.argsort(up * by_key.size + by_key[plays][at], kind="stable")
            out, at = out[order], at[order]
            moved = [up[order], pt[at] + 1, q_birth[out], q_source[out]]

        # What the last level (the links into gateways) sent is delivered.
        _, exits, births, sources = moved
        self.delivered_total += births.size
        self.delays.extend((exits + (start + overhead_slots) - births).tolist())
        self.births.extend(births.tolist())
        self.sources.extend(sources.tolist())
        self._link, self._birth, self._source = (
            np.concatenate(column) for column in zip(*kept)
        )
        self.backlog[self._order] = np.bincount(self._link, minlength=self.n_links)
        self.served_by_link[self._order] += sent_by
        self.plays_total += plays_used
        served = int(sent_by.sum())
        self.served_total += served
        return served

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
