"""The centralized GreedyPhysical algorithm (Brar et al., MobiCom 2006).

The baseline of the paper's evaluation and the algorithm FDD reproduces
distributedly.  Edges are considered in a fixed order; each edge is
allocated greedily to the earliest slots of the current schedule that remain
feasible with it, opening new slots at the end until its demand is met.

Polynomial time: slots live in one
:class:`~repro.scheduling.feasibility.SlotArena`, which tests a link against
*every* open slot in one batched pass — O(total members) on a dense power
matrix, O(degree × slots) from the link's two CSR rows on a sparse one.
On a *truncated* sparse matrix the packing is followed by verify-and-repair
rounds under the exact model (:func:`_repair`), O(members²) per slot.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.truth import Geometry, TruthReport, peel_slot
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.links import LinkSet
from repro.scheduling.orderings import EDGE_ORDERINGS
from repro.scheduling.schedule import Schedule, Slot


def greedy_physical(
    links: LinkSet,
    model: PhysicalInterferenceModel,
    ordering: str | Callable[[LinkSet, PhysicalInterferenceModel], np.ndarray] = "id",
) -> Schedule:
    """Compute a feasible schedule with the centralized greedy algorithm.

    Parameters
    ----------
    links:
        The links to schedule with their demands.
    model:
        Physical interference feasibility oracle.
    ordering:
        Name from :data:`~repro.scheduling.orderings.EDGE_ORDERINGS` or a
        callable ``(links, model) -> indices``.  The default ``"id"``
        (decreasing head IDs) is the ordering FDD realizes (Theorem 4).

    Returns
    -------
    Schedule
        A schedule in which every link appears in exactly ``demand`` slots
        (links with zero demand in none) and every slot is feasible under
        ``model``.  When ``model.power`` is a truncated sparse matrix that
        knows its geometry (``build_sparse_power`` at a finite cutoff),
        every slot also decodes under the *exact* physical model, not just
        under the truncation plus its far-field budget: packed slots are
        verified with :mod:`repro.phy.truth`, members that fail are peeled
        and re-packed into fresh slots until none does, and the report
        (violations found, memberships re-packed, rounds, kept margins)
        is the schedule's ``truth``.  Dense models, ``cutoff=inf`` and
        hand-built sparse matrices are exact or carry no recipe; their
        ``truth`` is ``None``.

    Raises
    ------
    ValueError
        If some link cannot even be scheduled alone in a slot (i.e. it is
        not a communication-graph edge), which would make its demand
        unsatisfiable.
    """
    order_fn = EDGE_ORDERINGS[ordering] if isinstance(ordering, str) else ordering
    order = order_fn(links, model)

    schedule = Schedule(link_set=links)
    demanded = [int(k) for k in order if int(links.demand[int(k)]) > 0]
    if not demanded:
        return schedule

    # Batched standalone screen: a link that cannot decode alone fails
    # every per-slot test and would raise the moment it opened a fresh
    # slot — catching the first such link (in allocation order) up front
    # reproduces the incremental loop's error exactly.
    idx = np.asarray(demanded, dtype=np.intp)
    alone = feasible_alone(model, links.heads[idx], links.tails[idx])
    if not alone.all():
        bad = int(idx[int(np.flatnonzero(~alone)[0])])
        raise ValueError(
            f"link {int(links.heads[bad])}->{int(links.tails[bad])} is infeasible "
            "even alone; it is not a valid communication edge"
        )

    schedule.slots = _pack(links, model, demanded, links.demand)
    # A property of the input, not an option: only a truncated matrix that
    # knows its recipe can — and needs to — be checked against the truth.
    geometry = getattr(model.power, "geometry", None)
    if geometry is not None and not model.power.value_dense:
        schedule.truth = _repair(schedule, model, demanded, geometry)
    return schedule


def _pack(
    links: LinkSet,
    model: PhysicalInterferenceModel,
    demanded: list[int],
    demand: np.ndarray,
) -> list[Slot]:
    """Greedy first-fit of ``demand[k]`` memberships per link ``k``, links
    taken in ``demanded`` order (each already screened alone), into fresh
    slots."""
    # Flat-column slot store: the verdicts of a SlotState per slot
    # (bit-identical, pinned by the arena suite in
    # tests/property/test_scheduling_properties.py), one numpy pass per
    # link — from per-node slot tables, with no power-matrix search, when
    # the model's power matrix is sparse.
    arena = SlotArena(model)
    slots: list[Slot] = []
    for k in demanded:
        remaining = int(demand[k])
        if remaining <= 0:
            continue
        sender = int(links.heads[k])
        receiver = int(links.tails[k])
        # One batched admission pass over the existing slots: adding this
        # link to slot j never changes slot j' (slots are independent), so
        # the precomputed verdicts match the incremental slot-by-slot scan.
        if arena.n_slots:
            for j in np.flatnonzero(arena.can_add_all(sender, receiver)):
                if remaining <= 0:
                    break
                arena.add(int(j), sender, receiver)
                slots[j].add(k)
                remaining -= 1
        while remaining > 0:
            arena.open_slot(sender, receiver)
            slot = Slot()
            slot.add(k)
            slots.append(slot)
            remaining -= 1
    return slots


def _repair(
    schedule: Schedule,
    model: PhysicalInterferenceModel,
    demanded: list[int],
    geometry: Geometry,
) -> TruthReport:
    """Make a packed schedule decode under the exact model, in place.

    Rounds of verify -> peel -> re-pack: every slot not yet verified is
    evaluated by :func:`repro.phy.truth.peel_slot`, which removes members
    lowest margin first until the rest decode; the removed memberships are
    packed by the same greedy, under the same model, into *fresh* slots
    appended to the schedule, which the next round verifies.  A verified
    slot keeps at least one member, so each round re-packs strictly fewer
    memberships than the last and the loop ends.
    """
    links = schedule.link_set
    noise, beta = model.radio.noise_mw, model.radio.beta
    margins: list[np.ndarray] = []
    violations = repaired = rounds = 0
    unverified = schedule.slots
    while unverified:
        peeled = np.zeros(links.n_links, dtype=np.int64)
        for slot in unverified:
            members = slot.as_array()
            kept, margin, found = peel_slot(
                geometry, links.heads[members], links.tails[members], noise, beta
            )
            violations += found
            margins.append(margin)
            if kept.size < members.size:
                peeled[np.delete(members, kept)] += 1
                slot.links = members[kept].tolist()
        if not peeled.any():
            break
        rounds += 1
        repaired += int(peeled.sum())
        unverified = _pack(links, model, demanded, peeled)
        schedule.slots.extend(unverified)
    return TruthReport(violations, np.concatenate(margins), repaired, rounds)
