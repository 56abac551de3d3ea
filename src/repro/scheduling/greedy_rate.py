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
from repro.scheduling.feasibility import SlotState
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
    singles = np.arange(links.n_links)[:, None]
    worst = np.array(model.slot_sinrs(links.heads, links.tails, singles), dtype=float)
    return table.rate_for(worst.reshape(-1))


def greedy_rate(
    links: LinkSet, model: PhysicalInterferenceModel, table
) -> Schedule:
    """Compute a schedule whose per-link *packet capacity* covers demand.

    Slot-centric greedy: candidates are visited in a fixed priority order
    (standalone rate descending, then head ID descending — the fast links
    seed slots, FDD's tie-break settles the rest) and a candidate is
    admitted iff the slot stays SINR-feasible **and** its total
    packets-per-slot strictly increases.  The admitted set's final rates are
    then charged against the members' residual demands and the next slot
    opens for whatever demand remains.

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
    alone = standalone_rates(links, model, table)
    # lexsort keys: last key is primary.
    order = np.lexsort((-links.heads, -alone))
    residual = links.demand.astype(np.int64).copy()

    schedule = Schedule(link_set=links)
    while residual.sum() > 0:
        state = SlotState(model)
        slot = Slot()
        total_rate = 0
        for k in order:
            k = int(k)
            if residual[k] <= 0:
                continue
            sender = int(links.heads[k])
            receiver = int(links.tails[k])
            if len(state) == 0:
                if not state.can_add(sender, receiver):
                    raise ValueError(
                        f"link {sender}->{receiver} is infeasible even alone; "
                        "it is not a valid communication edge"
                    )
            elif not state.can_add(sender, receiver):
                continue
            # Feasible — but does it grow the slot's capacity?  Rates of
            # the would-be member set, evaluated concurrently.
            snd, rcv = state.members()
            rates = model.link_rates(
                np.append(snd, sender), np.append(rcv, receiver), table
            )
            candidate = int(rates.sum())
            if candidate <= total_rate:
                continue
            state.add(sender, receiver)
            slot.add(k)
            granted, total_rate = rates, candidate
        members = slot.as_array()
        repeat = int((-(-residual[members] // granted)).min())
        residual[members] = np.maximum(0, residual[members] - repeat * granted)
        schedule.slots.append(slot)
        schedule.slots.extend(Slot(list(slot.links)) for _ in range(repeat - 1))
    return schedule
