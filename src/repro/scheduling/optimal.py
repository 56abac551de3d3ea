"""Exact minimum-length scheduling for small instances.

The optimal STDMA schedule under physical interference is NP-hard in
general, but tiny instances can be solved exactly, which lets us *measure*
the approximation ratio ``T_FDD / T_opt`` that Theorem 4 bounds.

Formulation: a schedule is a multiset of *feasible link sets* ("configurations")
whose multiplicities cover every link's demand.  Minimizing the number of
slots is a covering integer program; we solve it by:

1. enumerating all maximal feasible configurations (DFS over link subsets
   with feasibility pruning — feasible sets are downward closed under the
   conditional-ACK-free model used for slot feasibility, so pruning is
   sound);
2. branch-and-bound over configuration multiplicities with an LP-free
   lower bound (max remaining demand over the per-configuration coverage,
   plus a fractional covering bound).

Practical up to roughly a dozen links / a few hundred configurations, which
covers the validation instances (see the approximation-ratio experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.feasibility import what_if_sinrs
from repro.scheduling.links import LinkSet
from repro.scheduling.schedule import Schedule, Slot

#: Safety cap: refuse instances whose configuration space would explode.
MAX_LINKS = 16
MAX_CONFIGURATIONS = 5000


@dataclass(frozen=True)
class OptimalResult:
    """An exact optimum: the schedule and the explored search size."""

    schedule: Schedule
    configurations: int
    nodes_explored: int


def enumerate_maximal_feasible_sets(
    links: LinkSet, model: PhysicalInterferenceModel
) -> list[frozenset[int]]:
    """All maximal feasible link subsets (by slot feasibility).

    DFS in index order with the standard maximality filter: a set is
    emitted only if no earlier-indexed link could extend it (avoiding
    duplicates), then filtered to maximal sets.
    """
    if links.n_links > MAX_LINKS:
        raise ValueError(
            f"instance too large for exact enumeration "
            f"({links.n_links} links > {MAX_LINKS})"
        )
    beta = model.radio.beta
    feasible_sets: list[frozenset[int]] = []

    def extend(chosen: list[int], start: int) -> None:
        if len(feasible_sets) > MAX_CONFIGURATIONS:
            raise ValueError("configuration space too large; reduce the instance")
        # Every later link the set admits, judged in one what-if batch.
        free, sinrs = what_if_sinrs(
            model, links.heads, links.tails, chosen, np.arange(start, links.n_links)
        )
        admitted = free[(sinrs >= beta).all(axis=1)].tolist()
        for k in admitted:
            extend(chosen + [k], k + 1)
        if not admitted and chosen:
            feasible_sets.append(frozenset(chosen))

    extend([], 0)
    # Keep only maximal sets (a non-maximal set can appear when its
    # extensions all use earlier indices).
    maximal = [
        s
        for s in feasible_sets
        if not any(s < other for other in feasible_sets)
    ]
    return sorted(set(maximal), key=lambda s: (-len(s), sorted(s)))


def optimal_schedule(
    links: LinkSet, model: PhysicalInterferenceModel
) -> OptimalResult:
    """Exact minimum-length schedule via branch-and-bound covering.

    Returns a schedule whose length no feasible schedule can beat.  Raises
    :class:`ValueError` for oversized instances (see :data:`MAX_LINKS`).
    """
    demand = links.demand.astype(np.int64).copy()
    m = links.n_links
    if m == 0 or demand.sum() == 0:
        return OptimalResult(Schedule(link_set=links), 0, 0)
    configs = enumerate_maximal_feasible_sets(links, model)
    if not configs:
        raise ValueError("no feasible configurations; are the links valid edges?")
    config_masks = [np.zeros(m, dtype=bool) for _ in configs]
    for mask, cfg in zip(config_masks, configs):
        mask[list(cfg)] = True

    # Upper bound: greedy cover (always take the configuration covering the
    # most remaining demand).
    def greedy_cover(remaining: np.ndarray) -> list[int]:
        picks: list[int] = []
        rem = remaining.copy()
        while rem.any():
            best = max(
                range(len(configs)), key=lambda c: int((rem[config_masks[c]] > 0).sum())
            )
            if not (rem[config_masks[best]] > 0).any():
                raise RuntimeError("cover stalled; some link is in no configuration")
            picks.append(best)
            rem[config_masks[best]] = np.maximum(rem[config_masks[best]] - 1, 0)
        return picks

    best_picks = greedy_cover(demand)
    best_len = len(best_picks)
    nodes = 0

    # Lower bound: every slot covers each link at most once, so at least
    # max(remaining) slots are needed; and each slot covers at most
    # max-config-size demand units, so ceil(total/maxsize) too.
    max_cfg = max(len(c) for c in configs)

    def lower_bound(remaining: np.ndarray) -> int:
        total = int(remaining.sum())
        if total == 0:
            return 0
        return max(int(remaining.max()), -(-total // max_cfg))

    order = np.argsort(-demand)  # branch on the most demanding link first

    def branch(remaining: np.ndarray, used: int, picks: list[int]) -> None:
        nonlocal best_len, best_picks, nodes
        nodes += 1
        if nodes > 2_000_000:
            raise RuntimeError("branch-and-bound node budget exceeded")
        if not remaining.any():
            if used < best_len:
                best_len = used
                best_picks = picks.copy()
            return
        if used + lower_bound(remaining) >= best_len:
            return
        # Branch on the unsatisfied link with the highest demand: any
        # optimal multiset can be reordered so its next slot covers that
        # link (its remaining demand must still be covered by someone), so
        # restricting branches to target-covering configurations is sound
        # and collapses most permutations of the same multiset.
        target = next(k for k in order if remaining[k] > 0)
        for c, mask in enumerate(config_masks):
            if not mask[target]:
                continue
            nxt = remaining.copy()
            nxt[mask] = np.maximum(nxt[mask] - 1, 0)
            picks.append(c)
            branch(nxt, used + 1, picks)
            picks.pop()

    branch(demand, 0, [])

    schedule = Schedule(link_set=links)
    remaining = demand.copy()
    for c in best_picks:
        members = [k for k in sorted(configs[c]) if remaining[k] > 0]
        for k in members:
            remaining[k] -= 1
        schedule.slots.append(Slot(links=members))
    return OptimalResult(
        schedule=schedule, configurations=len(configs), nodes_explored=nodes
    )
