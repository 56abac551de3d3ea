"""The exact SINR check of a round: the guarantee behind the sparse backend.

A finite-cutoff :class:`~repro.phy.sparse.SparsePowerMatrix` is a packing
heuristic: beyond the cutoff it charges a static far-field floor, not what
a slot really holds.  Whether a packed slot *decodes* is decided here, under
the paper's physical model with nothing truncated — and cheaply, because
only a slot's own members transmit in it: one ``(k, k)`` gain block
``G[i, j] = gain(|s_i - r_j|)`` over the slot's ``k`` members carries every
interference term the dense ``(n, n)`` model would sum.  The block serves
both sub-slots (the channel is reciprocal): data power at receiver ``r_j``
is ``Σ_i tx[s_i]·G[i, j]``, ACK power at sender ``s_i`` is
``Σ_j tx[r_j]·G[i, j]``.  Nothing here is ever ``(n, n)``.

A whole round is judged at once.  Its slots become the rows of a padded
``(S, L, L)`` incidence stack per sub-slot — the layout of
:func:`~repro.phy.sinr.sinr_for_link_sets` — built for a *chunk* of slots
at a time (slots sorted by width, so a chunk holds similar widths; at most
``_STACK_ELEMENTS`` padded elements per sub-slot, a slot wider than that
alone), and every slot of a chunk is evaluated, and peeled, by the same
numpy passes: the per-slot Python is gone, every ``O(k²)`` term stays.

The arithmetic is the dense oracle's, operation for operation —
:func:`~repro.phy.gain.received_power_matrix` over the slot's nodes fed to
:meth:`~repro.phy.interference.PhysicalInterferenceModel.link_sinrs`: the
same squared distances, the same ``gain * tx`` products, column sums
accumulated over the transmitter axis in member order (padding and removed
members contribute an exact ``0.0``, which leaves every partial sum
unchanged), ``signal / (noise + (total - signal))``.  A member fails iff
that oracle's ``feasible_mask`` fails it
(``tests/property/test_truth_differential.py``), so a slot this module
passes cannot sit an ulp on the wrong side of an independent audit.

:func:`peel_round` reads a round through an *incidence* builder — the
``(transmitters, listeners)`` power stacks of a chunk — so the same peel
judges a round by its recipe (:func:`geometry_incidence`) or by a model's
own entries, noise and budget (:func:`power_incidence`: a dense or
untruncated matrix, exact already), bit for bit alike on the same powers.
``greedy_physical.repair`` picks the one that is exact for its model;
:func:`check_slots` is the same evaluation with nothing peeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.phy.propagation import PropagationModel
from repro.phy.sinr import GATHER_ELEMENTS
from repro.util.ranges import expand_ranges

#: Elements per temporary while a gain block is built: 128 KiB of float64,
#: cache-resident (twice as fast here as ``GATHER_ELEMENTS``-sized
#: temporaries) and bounded whatever the slot width.
_CHUNK_ELEMENTS = GATHER_ELEMENTS >> 6

#: Padded elements per sub-slot of one chunk's ``(S, 2, L, L)`` stack (1 MiB
#: for both): a slot wider than ``sqrt(_STACK_ELEMENTS)`` (256) is a chunk
#: alone, as wide ``sparse_10k`` slots are, while a round of narrow slots
#: (a superposed sharded round) is one chunk.  Chunks four times larger
#: made ``sparse_10k``'s exact check ~15 % slower on its seed-7 rounds.
_STACK_ELEMENTS = GATHER_ELEMENTS >> 4

#: ``(senders, receivers, live) -> (power, noise)`` for one chunk of a
#: round, ``senders`` / ``receivers`` / ``live`` each ``(S, L)`` (see
#: :func:`peel_round`).
Incidence = Callable[
    [np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, float | np.ndarray]
]


class Geometry(NamedTuple):
    """The recipe of a received-power matrix: ``P[i, j] = tx_power_mw[i] *
    propagation.gain(|positions[i] - positions[j]|)``."""

    positions: np.ndarray
    tx_power_mw: np.ndarray
    propagation: PropagationModel


def geometry_incidence(
    geometry: Geometry,
    noise_mw: float,
    senders: np.ndarray,
    receivers: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, float]:
    """The exact incidence of a chunk of slots (see :func:`peel_round`)
    from the recipe: one gain block ``G[t, i, j] = gain(|s_ti - r_tj|)``
    per slot serves both sub-slots (the channel is reciprocal), each
    scaled by its transmitters' power.  It is built ``_CHUNK_ELEMENTS`` at
    a time: whole slots, or rows of one slot wider than that."""
    n_slots, width = senders.shape
    power = np.empty((n_slots, 2, width, width), dtype=float)
    gain = power[:, 0]
    where = geometry.positions
    sx, sy = where[senders, 0], where[senders, 1]
    rx, ry = where[receivers, 0], where[receivers, 1]
    rows = max(1, min(width, _CHUNK_ELEMENTS // max(width, 1)))
    per = max(1, _CHUNK_ELEMENTS // max(width * width, 1))
    for t in range(0, n_slots, per):
        at = slice(t, t + per)
        for lo in range(0, width, rows):
            dx = sx[at, lo : lo + rows, None] - rx[at, None, :]
            dy = sy[at, lo : lo + rows, None] - ry[at, None, :]
            gain[at, lo : lo + rows] = geometry.propagation.gain(np.sqrt(dx * dx + dy * dy))
    tx = geometry.tx_power_mw
    np.multiply(gain.transpose(0, 2, 1), tx[receivers][..., None], out=power[:, 1])
    gain *= tx[senders][..., None]
    power.transpose(0, 2, 1, 3)[~live] = 0.0
    return power, noise_mw


def power_incidence(model, senders: np.ndarray, receivers: np.ndarray, live: np.ndarray):
    """The incidence of a chunk of slots (see :func:`peel_round`) a
    ``PhysicalInterferenceModel`` charges: its power entries, and its noise
    plus any per-node budget at each listener."""
    tx = np.stack((senders, receivers), axis=1)
    rx = tx[:, ::-1]
    noise = model.radio.noise_mw
    if model.budget_mw is not None:
        noise = noise + model.budget_mw[rx]
    power = model.power[tx[..., None], rx[:, :, None, :]]
    power.transpose(0, 2, 1, 3)[~live] = 0.0
    return power, noise


def _shared(senders: np.ndarray, receivers: np.ndarray, live: np.ndarray):
    """Every ``(slot, i, j)`` of live members with ``senders[slot, i] ==
    receivers[slot, j]`` — the node-sharing pairs, found by one sort."""
    width = live.shape[1]
    flat = np.flatnonzero(live)
    stride = int(max(senders.max(initial=0), receivers.max(initial=0))) + 1
    base = flat // width * stride
    heard = base + receivers.ravel()[flat]
    order = np.argsort(heard, kind="stable")
    heard = heard[order]
    said = base + senders.ravel()[flat]
    owner, hit = expand_ranges(
        np.searchsorted(heard, said, "left"), np.searchsorted(heard, said, "right")
    )
    slot, i = np.divmod(flat[owner], width)
    return slot, i, flat[order[hit]] % width


def _deaf(pairs: tuple[np.ndarray, ...], alive: np.ndarray) -> np.ndarray | None:
    """``(S, 2, L)`` half-duplex mask over the ``alive`` members'
    transmissions: receivers that send (data sub-slot, row 0), senders that
    receive (ACK sub-slot, row 1); ``None`` when no members share a node.
    ``pairs`` lists every ``(slot, i, j)`` with ``senders[slot, i] ==
    receivers[slot, j]`` (:func:`_shared`)."""
    slot, i, j = pairs
    if not slot.size:
        return None
    deaf = np.zeros((alive.shape[0], 2, alive.shape[1]), dtype=bool)
    on = alive[slot, i]
    deaf[slot[on], 0, j[on]] = True
    on = alive[slot, j]
    deaf[slot[on], 1, i[on]] = True
    return deaf


def _on_air(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(signal, total)`` of a chunk, each ``(S, 2, L)``: every member's
    own power at its listener, and every transmitter's power landing there
    — column sums of each ``(transmitters, listeners)`` block reduced over
    the transmitter axis in member order, the order the dense mesh of
    :func:`~repro.phy.sinr.sinr_for_links` reduces in."""
    diagonal = np.arange(power.shape[-1])
    return power[:, :, diagonal, diagonal], power.sum(axis=2)


def _sinrs(signal, total, deaf, noise) -> np.ndarray:
    """``signal / (noise + (total - signal))``, 0 where ``deaf``."""
    sinr = total - signal
    sinr += noise
    np.divide(signal, sinr, out=sinr)
    if deaf is not None:
        np.putmask(sinr, deaf, 0.0)
    return sinr


def _margins(signal, total, deaf, noise, dead, beta: float) -> np.ndarray:
    """Per-member ``min(data, ACK) SINR / β``; ``inf`` where ``dead``."""
    sinr = _sinrs(signal, total, deaf, noise)
    margin = np.minimum(sinr[:, 0], sinr[:, 1])
    margin /= beta
    np.putmask(margin, dead, np.inf)
    return margin


def _judge_chunk(power, noise, senders, receivers, at, live, beta, peel, keep, margins):
    """Evaluate — and with ``peel``, peel — every slot of a chunk in lockstep.

    Every pass evaluates the chunk's slots still failing from scratch (the
    removed members' rows zeroed, never decremented sums); each one that
    fails then removes its own worst member, lowest margin first with ties
    to the earliest position, all slots in one numpy pass per removal: up
    to ``k - 1`` of them off the running totals before its survivors are
    evaluated again.  A lone member that fails is removed too.  The members
    of a slot that decodes are marked in ``keep`` at their round positions
    ``at``, with their ``margins``.  Returns ``(found, elements)``: the
    members of each slot that failed at its first evaluation, and ``Σ k²``
    over evaluations.
    """
    pairs = _shared(senders, receivers, live)
    dead = ~live
    found = None
    elements = 0
    while True:
        sizes = dead.shape[1] - dead.sum(axis=1)
        elements += int((sizes * sizes).sum())
        deaf = _deaf(pairs, ~dead)
        signal, total = _on_air(power)
        m = _margins(signal, total, deaf, noise, dead, beta)
        failing = m < 1.0
        fails = failing.any(axis=1)
        if found is None:
            found = failing.sum(axis=1)
        done = ~dead & ~fails[:, None] if peel else ~dead
        keep[at[done]] = True
        margins[at[done]] = m[done]
        more = np.flatnonzero(fails & (sizes > 1))
        if not peel or not more.size:
            return found, elements
        if more.size < dead.shape[0]:
            power, signal, total, m, dead = power[more], signal[more], total[more], m[more], dead[more]
            at, sizes = at[more], sizes[more]
            noise = noise if np.ndim(noise) == 0 else noise[more]
            renumber = np.full(fails.size, -1)
            renumber[more] = np.arange(more.size)
            slot = renumber[pairs[0]]
            on = slot >= 0
            pairs = (slot[on], pairs[1][on], pairs[2][on])
            deaf = None if deaf is None else deaf[more]
        # Lockstep removals off the running totals, O(L) per slot each.  A
        # slot still going after ``step`` removals has made exactly that
        # many, so it stops at ``k - 1``.
        rows = np.arange(more.size)
        going = np.ones(more.size, dtype=bool)
        smallest = int(sizes.min())
        step = 0
        while True:
            worst = m.argmin(axis=1)
            going[m[rows, worst] >= 1.0] = False
            if step + 1 >= smallest:
                going &= sizes > step + 1
            count = np.count_nonzero(going)
            if count == going.size:
                dead[rows, worst] = True
                total -= power[rows, :, worst]
            elif count:
                slot = np.flatnonzero(going)
                member = worst[slot]
                dead[slot, member] = True
                total[slot] -= power[slot, :, member]
            else:
                break
            if deaf is not None:
                deaf = _deaf(pairs, ~dead)
            m = _margins(signal, total, deaf, noise, dead, beta)
            step += 1
        power.transpose(0, 2, 1, 3)[dead] = 0.0


def _chunks(widths: np.ndarray) -> list[np.ndarray]:
    """The round's non-empty slots, widest first (ties in slot order), cut
    into chunks of at most ``_STACK_ELEMENTS`` padded elements."""
    order = np.argsort(-widths, kind="stable")
    order = order[: np.count_nonzero(widths)]
    chunks = []
    lo = 0
    while lo < order.size:
        width = int(widths[order[lo]])
        take = max(1, _STACK_ELEMENTS // (width * width))
        chunks.append(order[lo : lo + take])
        lo += take
    return chunks


class RoundVerdict(NamedTuple):
    """What :func:`peel_round` decided, over the round's flat members.

    ``keep`` marks the members that stay; ``margins`` holds their
    ``min(data, ACK) SINR / β``, in round order, evaluated from scratch on
    exactly the set each slot keeps; ``found[t]`` counts slot ``t``'s
    members that failed before anything was removed; ``elements`` is
    ``Σ k²`` over every from-scratch slot evaluation (padding excluded).
    """

    keep: np.ndarray
    margins: np.ndarray
    found: np.ndarray
    elements: int


def _judge_round(
    incidence: Incidence,
    senders: np.ndarray,
    receivers: np.ndarray,
    ends: list[int],
    beta: float,
    peel: bool,
) -> RoundVerdict:
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    starts = np.concatenate(([0], ends[:-1])).astype(np.intp)
    widths = ends - starts
    keep = np.zeros(snd.size, dtype=bool)
    margins = np.empty(snd.size, dtype=float)
    found = np.zeros(widths.size, dtype=np.intp)
    elements = 0
    for slots in _chunks(widths):
        width = int(widths[slots[0]])
        live = np.arange(width) < widths[slots, None]
        at = np.where(live, starts[slots, None] + np.arange(width), starts[slots, None])
        s, r = snd[at], rcv[at]
        power, noise = incidence(s, r, live)
        found[slots], count = _judge_chunk(
            power, noise, s, r, at, live, beta, peel, keep, margins
        )
        elements += count
    return RoundVerdict(keep, margins[keep], found, elements)


def peel_round(
    incidence: Incidence,
    senders: np.ndarray,
    receivers: np.ndarray,
    ends: list[int],
    beta: float,
) -> RoundVerdict:
    """Remove members of every slot of a round, lowest margin first, until
    each slot decodes.

    The round is flat: slot ``t`` is ``senders[ends[t-1]:ends[t]] ->
    receivers[...]`` (an empty slot repeats the previous end).
    ``incidence(senders, receivers, live)`` builds a chunk of slots padded
    to width ``L`` — each argument ``(S, L)``, ``live`` false on padding —
    as ``(power, noise)``: the received powers ``(S, 2, L, L)``, one
    C-ordered ``(transmitters, listeners)`` block per slot and sub-slot —
    ``power[t, 0, i, j]`` what receiver ``r_j`` hears from sender ``s_i``
    (data), ``power[t, 1, j, i]`` what sender ``s_i`` hears from receiver
    ``r_j`` (ACK), an exact ``0.0`` in every row of a padding transmitter —
    and the noise floor, a scalar or ``(S, 2, L)`` per listener (row 0 the
    receivers, row 1 the senders).  It is called once per chunk.

    A slot's verdict is what peeling it alone gives, bit for bit: margins
    evaluated from scratch on exactly the kept set (never from decremented
    sums, so the verdict is the one an independent audit reaches), ties to
    the earliest position, and a member that cannot decode even alone is
    removed too (its slot is then emptied); only a from-scratch evaluation
    of it alone decides that.
    """
    return _judge_round(incidence, senders, receivers, ends, beta, True)


@dataclass(frozen=True, eq=False)
class TruthReport:
    """What the exact check found in a round.

    ``violations`` counts members that failed ``SINR >= β`` when their slot
    was first evaluated; ``margins`` holds ``min(data, ACK) SINR / β`` of
    every member of the slots as they stand (after any repair), in slot
    order; ``check_elements`` is the member pairs the check evaluated,
    ``Σ k²`` over every from-scratch slot evaluation.  The verify-and-repair
    pass (``greedy_physical.repair``) also books the memberships it
    re-packed and the rounds that took; a plain :func:`check_slots` leaves
    both at 0.
    """

    violations: int
    margins: np.ndarray
    check_elements: int
    repaired_tx: int = 0
    repair_rounds: int = 0


def check_slots(
    geometry: Geometry,
    senders: np.ndarray,
    receivers: np.ndarray,
    ends: list[int],
    noise_mw: float,
    beta: float,
) -> TruthReport:
    """Exact verdict on a flat round (see :func:`peel_round`), nothing
    repaired."""
    incidence = partial(geometry_incidence, geometry, noise_mw)
    verdict = _judge_round(incidence, senders, receivers, ends, beta, False)
    return TruthReport(int(verdict.found.sum()), verdict.margins, verdict.elements)
