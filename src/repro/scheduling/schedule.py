"""Schedule containers: slots of concurrently transmitting links.

A :class:`Schedule` is an ordered list of :class:`Slot`\\ s; each slot holds
the indices (into a :class:`~repro.scheduling.links.LinkSet`) of the links
that transmit concurrently in that slot.  One slot carries one packet per
member link, so a link with demand ``d`` must appear in ``d`` distinct slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.phy.truth import TruthReport
from repro.scheduling.links import LinkSet


@dataclass
class Slot:
    """One STDMA slot: the set of link indices transmitting concurrently."""

    links: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.links)

    def add(self, link_index: int) -> None:
        if link_index in self.links:
            raise ValueError(f"link {link_index} already in slot")
        self.links.append(link_index)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.links, dtype=np.intp)


@dataclass
class Schedule:
    """An ordered sequence of slots over a fixed link set."""

    link_set: LinkSet
    slots: list[Slot] = field(default_factory=list)
    #: The exact-model report of the scheduler's verify-and-repair pass,
    #: when it ran one (``greedy_physical`` on a truncated power matrix).
    truth: TruthReport | None = field(default=None, compare=False, repr=False)

    @property
    def length(self) -> int:
        """Schedule length ``T``: the number of slots."""
        return len(self.slots)

    def allocations(self) -> np.ndarray:
        """Number of slots in which each link appears (per link index)."""
        members = np.fromiter(
            chain.from_iterable(slot.links for slot in self.slots), dtype=np.intp
        )
        return np.bincount(members, minlength=self.link_set.n_links).astype(np.int64)

    def satisfies_demand(self) -> bool:
        """Does every link appear in at least ``demand`` slots?"""
        return bool((self.allocations() >= self.link_set.demand).all())

    def concurrency(self) -> float:
        """Average number of links per slot (spatial-reuse indicator)."""
        if not self.slots:
            return 0.0
        return float(np.mean([len(s) for s in self.slots]))

    def slot_members(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(senders, receivers) node arrays of slot ``t``."""
        idx = self.slots[t].as_array()
        return self.link_set.heads[idx], self.link_set.tails[idx]

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"Schedule(length={self.length}, links={self.link_set.n_links}, "
            f"TD={self.link_set.total_demand}, "
            f"avg_concurrency={self.concurrency():.2f})"
        )
