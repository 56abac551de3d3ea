"""Edge orderings for GreedyPhysical.

The approximation bound of ref. [4] holds for *any* initial edge ordering;
the paper's Theorem 4 uses decreasing head-ID order because that is the
order FDD realizes distributedly, and it needs the IDs only to be unique.
We provide the orderings used in the paper, two natural alternatives for
the ordering ablation (A2 in DESIGN.md), and ``"hashed"``: decreasing
*hashed* head ID.  The hash is a bijection, so hashed IDs are unique IDs
and FDD realizes that order too; it scatters neighbouring nodes across the
order, which the truncated sparse path packs in by default
(:func:`~repro.scheduling.greedy_physical.greedy_physical`; DESIGN.md §13).

Every ordering returns link indices (positions in the LinkSet), most
significant first.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.links import LinkSet


def order_by_id(links: LinkSet, model: PhysicalInterferenceModel) -> np.ndarray:
    """Decreasing head IDs — the ordering FDD reproduces (Theorem 4)."""
    return np.argsort(-links.ids, kind="stable").astype(np.intp)


#: Fibonacci hashing's multiplier, ``floor(2**64 / golden ratio)``.  It is
#: odd, so multiplication by it is a bijection on 64-bit words.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def hashed_ids(ids: np.ndarray) -> np.ndarray:
    """Fibonacci hash of each ID, ``ids * 0x9E3779B97F4A7C15 mod 2**64``
    (``uint64``).  The multiplier is odd, so distinct IDs keep distinct keys.
    """
    return np.asarray(ids).astype(np.uint64) * _FIBONACCI


def order_by_hashed_id(links: LinkSet, model: PhysicalInterferenceModel) -> np.ndarray:
    """Decreasing hashed head IDs: a spatially mixed order FDD can realize
    by numbering the nodes by their hash (Theorem 4 needs unique IDs only)."""
    return np.argsort(~hashed_ids(links.ids), kind="stable").astype(np.intp)


def order_by_demand(links: LinkSet, model: PhysicalInterferenceModel) -> np.ndarray:
    """Decreasing demand (heaviest links first); ties by decreasing ID."""
    keys = np.lexsort((-links.ids, -links.demand))
    return keys.astype(np.intp)


def order_by_length(links: LinkSet, model: PhysicalInterferenceModel) -> np.ndarray:
    """Decreasing physical 'length' measured as weakest received signal.

    Without geometry at hand, the natural proxy for link length is the
    received data-signal power: weaker signal = longer/harder link, scheduled
    first while slots are empty.
    """
    signal = model.power[links.heads, links.tails]
    keys = np.lexsort((-links.ids, signal))
    return keys.astype(np.intp)


def order_by_interference_number(
    links: LinkSet, model: PhysicalInterferenceModel
) -> np.ndarray:
    """Decreasing pairwise-conflict count (GreedyPhysical's original order).

    The interference number of link ``e`` is the number of other links that
    cannot be scheduled together with ``e`` in a slot containing just the
    two of them.  O(m²) pairwise tests; fine for the forest-sized link sets
    the paper schedules (m < n).
    """
    m = links.n_links
    conflicts = np.zeros(m, dtype=np.int64)
    heads, tails = links.heads, links.tails
    for i in range(m):
        for j in range(i + 1, m):
            snd = np.array([heads[i], heads[j]], dtype=np.intp)
            rcv = np.array([tails[i], tails[j]], dtype=np.intp)
            if not model.is_feasible(snd, rcv):
                conflicts[i] += 1
                conflicts[j] += 1
    keys = np.lexsort((-links.ids, -conflicts))
    return keys.astype(np.intp)


EDGE_ORDERINGS: dict[str, Callable[[LinkSet, PhysicalInterferenceModel], np.ndarray]]
EDGE_ORDERINGS = {
    "id": order_by_id,
    "demand": order_by_demand,
    "length": order_by_length,
    "interference": order_by_interference_number,
    "hashed": order_by_hashed_id,
}
