"""The centralized GreedyPhysical algorithm (Brar et al., MobiCom 2006).

The baseline of the paper's evaluation and the algorithm FDD reproduces
distributedly.  Edges are considered in a fixed order; each edge is
allocated greedily to the earliest slots of the current schedule that remain
feasible with it, opening new slots at the end until its demand is met.

Polynomial time: slots live in one
:class:`~repro.scheduling.feasibility.SlotArena`, which tests a link against
*every* open slot in one batched pass — O(total members) on a dense power
matrix, O(degree × slots) from the link's two CSR rows on a sparse one.
On a sparse matrix the links are not even taken one at a time: the
allocation order only matters between links that can hear each other, so
:func:`_waves` groups the candidates into *waves* of links whose CSR
neighbourhoods are pairwise disjoint and :func:`_pack_waves` tests and
admits a wave per pass — the schedule of the one-at-a-time loop, to the
bit, at a fraction of its numpy calls (DESIGN.md §3, "The wave rule").
On a *truncated* sparse matrix the packing is followed by verify-and-repair
rounds under the exact model (:func:`repair`): each round's slots are
judged and peeled together, O(k²) member pairs per slot of ``k`` in a
numpy pass per chunk of slots — the same pass the sharded engine runs on
every superposed round.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.truth import (
    Geometry,
    TruthReport,
    geometry_incidence,
    peel_round,
    power_incidence,
)
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.links import LinkSet
from repro.scheduling.orderings import EDGE_ORDERINGS
from repro.scheduling.schedule import Schedule, Slot
from repro.util.ranges import join, split_at


OrderFn = Callable[[LinkSet, PhysicalInterferenceModel], np.ndarray]


def greedy_physical(
    links: LinkSet,
    model: PhysicalInterferenceModel,
    ordering: str | OrderFn | None = None,
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
        callable ``(links, model) -> indices``, always honoured.  The
        default ``None`` follows the model: ``"hashed"`` (decreasing hashed
        head IDs) on a truncated, geometry-backed sparse matrix — the one
        the exact-model repair below runs on, where the raster order chains
        neighbouring links into serial waves and over-admits (DESIGN.md
        §13) — and ``"id"`` (decreasing head IDs) on every exact model.
        FDD realizes either order (Theorem 4): the node IDs themselves for
        ``"id"``, the nodes numbered by their hash for ``"hashed"``.

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
    # A property of the input, not an option: only a truncated matrix that
    # knows its recipe can — and needs to — be checked against the truth.
    truncated = _recipe(model) is not None
    if ordering is None:
        ordering = "hashed" if truncated else "id"
    order_fn = EDGE_ORDERINGS[ordering] if isinstance(ordering, str) else ordering
    order = np.asarray(order_fn(links, model), dtype=np.intp)
    schedule = Schedule(link_set=links)
    if links.demand[order].any():
        schedule.slots = first_fit_pack(links, model, order, links.demand)
    if truncated:  # no demand: an empty report, still not ``None``
        members, ends = join([slot.links for slot in schedule.slots])
        members, ends, schedule.truth = repair(members, ends, links, model, order)
        schedule.slots = [Slot(links=piece.tolist()) for piece in split_at(members, ends)]
    return schedule


def first_fit_pack(
    links: LinkSet,
    model: PhysicalInterferenceModel,
    demanded: np.ndarray,
    demand: np.ndarray,
) -> list[Slot]:
    """Greedy first-fit of ``demand[k]`` memberships per link ``k``, links
    taken in ``demanded`` order (at least one with demand), into fresh
    slots: each membership joins the earliest slots that stay feasible with
    it, or opens new ones.

    Raises ``ValueError`` naming the first link, in ``demanded`` order,
    that cannot decode even alone: it would fail every per-slot test, and
    the arena only holds members that decode (its member-feasibility
    invariant).
    """
    demanded = demanded[demand[demanded] > 0]
    heads = links.heads[demanded]
    tails = links.tails[demanded]
    alone = feasible_alone(model, heads, tails)
    if not alone.all():
        bad = int(np.flatnonzero(~alone)[0])
        raise ValueError(
            f"link {int(heads[bad])}->{int(tails[bad])} is infeasible "
            "even alone; it is not a valid communication edge"
        )
    # Flat-column slot store: the verdicts of the scalar per-slot test
    # (bit-identical, pinned by the arena suite in
    # tests/property/test_scheduling_properties.py), one numpy pass per
    # link on a dense power matrix, one per wave of links on a sparse one.
    arena = SlotArena(model)
    want = demand[demanded]
    if getattr(model.power, "is_sparse_power", False):
        return _pack_waves(arena, model.power, demanded, heads, tails, want)
    [(slots, _, _)] = first_fit_dense(arena, [heads], [tails], [want], count_vetoes=False)
    ids = demanded.tolist()
    return [Slot(links=[ids[p] for p in members]) for members in slots]


def first_fit_dense(
    arena: SlotArena,
    heads: list[np.ndarray],
    tails: list[np.ndarray],
    want: list[np.ndarray],
    count_vetoes: bool,
) -> list[tuple[list[list[int]], np.ndarray, int]]:
    """First-fit of ``want[s][p]`` memberships per link ``p`` of every
    *lane* ``s`` on a dense arena, each lane's links taken in the given
    order, each decoding alone.  Lanes are independent problems on
    node-disjoint blocks of the arena's power matrix (the sharded engine's
    regions; one lane is the plain pack): a lane's slots hold its links
    only, and it reads only its own slots.  They run in lockstep, ending
    together, so one numpy pass tests the next link of every lane against
    every slot, each slot against its own lane's candidate, and one
    ``add`` and one ``insert`` admit them all; the arena keeps each lane's
    slots together, in its order, so a lane reads its verdicts as a slice.

    Returns, per lane, each of its slots' members (positions in its order,
    allocation order), each link's last slot (numbered within the lane)
    and the vetoes: what the lane run alone returns, bit for bit, whatever
    the other lanes.  With ``count_vetoes`` (else 0) the vetoes are those
    FDD's construction steps would see on the way
    (:func:`repro.core.protocol.run_by_theorem4`, Theorem 4): link ``p``
    is tried against every existing slot up to its last membership, and
    each one that refuses it because a member objects
    (:meth:`SlotArena.handshake_verdicts`) is one vetoed step.  Without
    the count, admission is :meth:`SlotArena.can_add_all`, the same
    verdicts at fewer per-slot reductions.
    """
    lanes = range(len(heads))
    ws = [w.tolist() for w in want]
    steps = max(map(len, ws), default=0)
    # The lanes end together: lane s takes its link q at step q + start[s],
    # so no step tests the slots of a lane that has run out of links (a
    # lane yet to start has no slots, and its candidate, node 0, is unread).
    start = [steps - len(w) for w in ws]
    every = [
        np.stack([np.concatenate((np.zeros(lo, dtype=np.intp), e)) for e, lo in zip(ends, start)], 1)
        for ends in (heads, tails)
    ]
    slots: list[list[list[int]]] = [[] for _ in lanes]  # every lane's, in its order
    # The arena keeps each lane's slots together and in its order: lane s
    # holds slots bounds[s] to bounds[s + 1] - 1, and label[j] is slot j's
    # lane (kept for several lanes only).
    bounds = [0 for _ in range(len(ws) + 1)]
    label = np.empty(0, dtype=np.intp)
    last = [np.empty(len(w), dtype=np.intp) for w in ws]
    vetoes = [0 for _ in lanes]
    one = len(ws) == 1
    for p, (snd, rcv) in enumerate(zip(*every)):  # every lane's candidate
        # Each slot's candidate is its lane's; a lone lane's is one for
        # every slot, the arena's cheaper pass.
        cand = (int(snd[0]), int(rcv[0])) if one else (snd[label], rcv[label])
        if bounds[-1]:
            # One pass tests every slot against its own lane's candidate.
            if count_vetoes:
                admits, objects = arena.handshake_verdicts(*cand)
            else:
                admits = arena.can_add_all(*cand)
        joins: list[int] = []
        fresh: list[tuple[int, int]] = []
        for s, (q, wants, mine, lo) in enumerate(zip(start, ws, slots, bounds)):
            q = p - q
            if q < 0:
                continue
            need = wants[q]
            if mine:
                got = admits[lo : lo + len(mine)].nonzero()[0][:need].tolist()
                tried = got[-1] + 1 if len(got) == need else len(mine)
                if count_vetoes:
                    vetoes[s] += int(np.count_nonzero(objects[lo : lo + tried]))
                for i in got:
                    mine[i].append(q)
                joins += [lo + i for i in got]
                need -= len(got)
                last[s][q] = tried - 1
            if need:
                mine.extend([q] for _ in range(need))
                fresh.append((s, need))
                last[s][q] = len(mine) - 1
        if joins:
            arena.add(joins, *(cand if one else (cand[0][joins], cand[1][joins])))
        if fresh:
            # Each lane's fresh slots open at the end of its block.
            bounds = list(accumulate(map(len, slots), initial=0))
            at = [j for s, k in fresh for j in range(bounds[s + 1] - k, bounds[s + 1])]
            if not one:
                label = np.repeat(lanes, np.diff(bounds))
                cand = snd[label[at]], rcv[label[at]]
            arena.insert(at, *cand)
    return [(slots[s], last[s], vetoes[s]) for s in lanes]


#: Candidates whose CSR rows :func:`_waves` gathers at a time (bounds the
#: gather at ~chunk x 2 x degree entries whatever the link count).
_WAVE_CHUNK = 512


def _waves(power, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Wave number of each candidate link, in allocation order.

    With ``N(k)`` the stored columns of the CSR rows of link ``k``'s two
    endpoints — every node that hears it, the endpoints included since a
    link that decodes alone has both its signal entries stored — a
    candidate's wave is one more than the latest wave stamped on any node
    of ``N(k)``, and it stamps them all in turn.  So two links share a wave
    only if their ``N`` are disjoint, and two links whose ``N`` intersect
    sit in increasing waves in their allocation order.
    """
    stamp = np.zeros(power.n, dtype=np.intp)
    waves: list[int] = []
    for lo in range(0, heads.size, _WAVE_CHUNK):
        ends = np.stack((heads[lo : lo + _WAVE_CHUNK], tails[lo : lo + _WAVE_CHUNK]), 1)
        owner, cols, _ = power.rows(ends.ravel())
        bounds = np.searchsorted(owner, np.arange(0, ends.size + 1, 2)).tolist()
        for a, b in zip(bounds, bounds[1:]):
            near = cols[a:b]
            wave = int(stamp[near].max()) + 1
            stamp[near] = wave
            waves.append(wave)
    return np.asarray(waves, dtype=np.intp)


def _pack_waves(
    arena: SlotArena,
    power,
    demanded: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    want: np.ndarray,
) -> list[Slot]:
    """:func:`first_fit_pack` on the sparse arena, a wave of candidates per pass.

    Demand becomes copies: link ``k`` is a candidate ``want[k]`` times, as
    consecutive copies in allocation order, each wanting one membership.
    What an admission test of a copy reads of the arena (the slot tables
    at ``N(k)`` and the sums of members listening there) and what
    admitting it writes (the same cells) both lie inside ``N(k)``
    (:func:`_waves`), so candidates with disjoint ``N`` neither see nor
    disturb one another in any slot: tested together and admitted together
    they get the verdicts, slots and interference sums the one-at-a-time
    loop gives them, and waves taken in order respect every dependency
    that loop has.  Copies of a link share ``N(k)``, so they fall into
    successive waves, and node sharing vetoes each from its earlier
    copies' slots: it takes the next admitting slot, as the loop's
    demand-``d`` step does.  A fresh slot holds only wave-mates, so every
    candidate no slot admits joins the same fresh slot, as it would have
    found it opened by the wave-mate ahead of it.  A value-dense matrix
    puts every node in every ``N``: one candidate per wave, the serial loop.
    """
    copy = np.repeat(np.arange(demanded.size), want)
    heads, tails = heads[copy], tails[copy]
    wave = _waves(power, heads, tails)
    turn = np.argsort(wave, kind="stable")
    ends = np.searchsorted(wave[turn], np.arange(1, wave.max() + 2)).tolist()
    where = np.empty(copy.size, dtype=np.intp)
    for a, b in zip(ends, ends[1:]):
        mates = turn[a:b]
        where[mates] = arena.first_fit(heads[mates], tails[mates])
    # Each slot lists its links in allocation order, as the serial loop
    # appends them.
    ids = demanded[copy[np.argsort(where, kind="stable")]].tolist()
    cuts = np.cumsum(np.bincount(where, minlength=arena.n_slots)).tolist()
    return [Slot(links=ids[a:b]) for a, b in zip([0] + cuts, cuts)]


def _recipe(model: PhysicalInterferenceModel) -> Geometry | None:
    """The geometry a truncated sparse matrix was harvested from, or
    ``None`` when the model's own entries are all there is (dense,
    ``cutoff=inf``, hand-built)."""
    power = model.power
    geometry = getattr(power, "geometry", None)
    return None if geometry is None or power.value_dense else geometry


def repair(
    members: np.ndarray,
    ends: list[int],
    links: LinkSet,
    model: PhysicalInterferenceModel,
    order: np.ndarray,
) -> tuple[np.ndarray, list[int], TruthReport]:
    """Make the flat round ``members`` (link indices, slot ``t`` ending at
    ``ends[t]``) decode under the exact model.

    Rounds of verify -> peel -> re-pack: every slot not yet verified is
    judged by :func:`repro.phy.truth.peel_round`, the whole round at once,
    which removes members lowest margin first until each slot decodes; the
    removed memberships are packed by :func:`first_fit_pack`, links in
    ``order``, under ``model``, into *fresh* slots after the verified ones,
    which the next round verifies.  The judge is the exact model: the
    geometry a truncated sparse matrix was harvested from, or else
    ``model``'s own entries, noise and budget.  A link that cannot decode
    even alone is peeled and then refused by the packer (``ValueError``),
    so a verified slot keeps at least one member, each round re-packs
    strictly fewer memberships than the last, and the loop ends.  Empty
    slots are dropped.

    Returns the verified round, in order, as ``(members, ends)``, and the
    :class:`TruthReport`.
    """
    heads, tails = links.heads, links.tails
    beta = model.radio.beta
    geometry = _recipe(model)
    if geometry is None:
        incidence = partial(power_incidence, model)
    else:
        incidence = partial(geometry_incidence, geometry, model.radio.noise_mw)
    verified: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    margins = [np.empty(0, dtype=float)]
    violations = repaired = rounds = elements = 0
    while True:
        members = np.asarray(members, dtype=np.intp)
        verdict = peel_round(incidence, heads[members], tails[members], ends, beta)
        violations += int(verdict.found.sum())
        elements += verdict.elements
        margins.append(verdict.margins)
        widths = np.diff(ends, prepend=0).astype(np.intp)
        kept = np.bincount(
            np.repeat(np.arange(widths.size), widths)[verdict.keep], minlength=widths.size
        )
        verified.append(members[verdict.keep])
        sizes.append(kept[kept > 0])
        peeled = np.bincount(members[~verdict.keep], minlength=links.n_links)
        if not peeled.any():
            report = TruthReport(
                violations, np.concatenate(margins), elements, repaired, rounds
            )
            ends = np.cumsum(np.concatenate(sizes), dtype=np.intp).tolist()
            return np.concatenate(verified), ends, report
        rounds += 1
        repaired += int(peeled.sum())
        members, ends = join([slot.links for slot in first_fit_pack(links, model, order, peeled)])
