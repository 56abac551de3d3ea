"""Rate-aware greedy scheduling: maximize packets per slot, not members.

:func:`repro.scheduling.greedy_physical.greedy_physical` packs each slot
with as many *memberships* as stay feasible — the right objective when every
membership carries exactly one packet.  Under a multi-rate contract
(:class:`~repro.phy.radio.RateTable`) memberships are not equal: a link with
SINR headroom carries the packets of a higher MCS tier, and adding a
marginal member can demote other members' tiers, shrinking the slot's total
capacity even though the slot stays feasible.  :func:`greedy_rate` therefore
packs each slot by **total packets per slot**: a candidate joins only when
the slot's summed rate strictly increases (Zhou et al.'s
throughput-maximization objective, greedy instead of exact).

Demand is matched in *packets*, not memberships: a link stops receiving
slots once the rates of its memberships cover its demand, so the resulting
:class:`~repro.scheduling.schedule.Schedule` is generally **shorter** than a
fixed-rate schedule for the same demand and need not satisfy the
membership-count ``satisfies_demand`` test.  Under the degenerate
single-tier table every rate is 1 and both notions coincide.
"""

from __future__ import annotations

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.feasibility import what_if_sinrs
from repro.scheduling.links import LinkSet
from repro.scheduling.schedule import Schedule, Slot


def standalone_rates(
    links: LinkSet, model: PhysicalInterferenceModel, table
) -> np.ndarray:
    """Each link's packets-per-slot when transmitting alone (0 if infeasible).

    The interference-free ceiling of every link's MCS: no concurrent set can
    grant more.  Stateless ``rate_for`` — a link below the base threshold
    even alone reports 0, i.e. it is not a communication edge.
    """
    return table.rate_for(model.alone_sinrs(links.heads, links.tails))


def greedy_rate(
    links: LinkSet, model: PhysicalInterferenceModel, table
) -> Schedule:
    """Compute a schedule whose per-link *packet capacity* covers demand.

    Slot-centric greedy: candidates are visited in a fixed priority order
    (standalone rate descending, then head ID descending — the fast links
    seed slots, FDD's tie-break settles the rest) and a candidate is
    admitted iff it shares no node with a member, every member's and its
    own ``min(data, ACK)`` SINR stays ``>= β``, **and** the slot's total
    packets-per-slot (base-tier floor) strictly increases.  The admitted
    set's final rates are then charged against the members' residual
    demands and the next slot opens for whatever demand remains.

    Each admission is one :func:`~repro.scheduling.feasibility.what_if_sinrs`
    call over every candidate still ahead in the walk: the first row that
    passes is the next member, exactly the one a candidate-at-a-time walk
    would reach, and its SINRs are the rates the test compares.

    Which slot gets built depends on the residuals only through the
    *pending set* ``{k : residual[k] > 0}`` — the walk skips exhausted links
    and never reads a positive residual's size.  So once a slot with granted
    rates ``g`` is built, it is rebuilt verbatim until a member runs out:
    ``repeat = min_k ceil(residual[k] / g[k])`` copies in all, appended and
    charged in one step.  Each distinct slot retires at least one link, so
    a call builds at most ``n_links`` of them however long the schedule.

    Raises
    ------
    ValueError
        If a link with demand cannot be scheduled even alone (not a
        communication edge), mirroring
        :func:`~repro.scheduling.greedy_physical.greedy_physical`.
    """
    worst = model.alone_sinrs(links.heads, links.tails)
    # lexsort keys: last key is primary.
    order = np.lexsort((-links.heads, -table.rate_for(worst)))
    residual = links.demand.astype(np.int64).copy()

    schedule = Schedule(link_set=links)
    while residual.sum() > 0:
        members, granted = _build_slot(
            links, model, table, worst, order[residual[order] > 0]
        )
        repeat = int((-(-residual[members] // granted)).min())
        residual[members] = np.maximum(0, residual[members] - repeat * granted)
        schedule.slots.extend(Slot(list(members)) for _ in range(repeat))
    return schedule


def _build_slot(links, model, table, worst, pending) -> tuple[list[int], np.ndarray]:
    """One slot of the walk over ``pending`` (priority order): its members
    in admission order and their granted rates.  ``worst`` is every link's
    ``min(data, ACK)`` SINR alone."""
    heads, tails = links.heads, links.tails
    beta = model.radio.beta
    first = int(pending[0])
    if not worst[first] >= beta:
        raise ValueError(
            f"link {heads[first]}->{tails[first]} is infeasible even alone; "
            "it is not a valid communication edge"
        )
    members = [first]
    granted = table.grant(worst[first : first + 1])
    total_rate = int(granted.sum())
    # A link that fails alone fails every what-if: never a candidate.
    ahead = pending[1:]
    ahead = ahead[worst[ahead] >= beta]
    while ahead.size:
        ahead, sinrs = what_if_sinrs(model, heads, tails, members, ahead)
        rates = table.grant(sinrs)
        totals = rates.sum(axis=1)
        admits = (sinrs >= beta).all(axis=1) & (totals > total_rate)
        if not admits.any():
            break
        i = int(admits.argmax())
        members.append(int(ahead[i]))
        granted, total_rate = rates[i], int(totals[i])
        ahead = ahead[i + 1 :]
    return members, granted
