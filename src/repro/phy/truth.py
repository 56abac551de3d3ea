"""The exact per-slot SINR check: the guarantee behind the sparse backend.

A finite-cutoff :class:`~repro.phy.sparse.SparsePowerMatrix` is a packing
heuristic: beyond the cutoff it charges a static far-field floor, not what
a slot really holds.  Whether a packed slot *decodes* is decided here, under
the paper's physical model with nothing truncated — and cheaply, because
only a slot's own members transmit in it: one ``(k, k)`` gain block
``G[i, j] = gain(|s_i - r_j|)`` over the slot's ``k`` members carries every
interference term the dense ``(n, n)`` model would sum.  The block serves
both sub-slots (the channel is reciprocal): data power at receiver ``r_j``
is ``Σ_i tx[s_i]·G[i, j]``, ACK power at sender ``s_i`` is
``Σ_j tx[r_j]·G[i, j]``.  Nothing here is ever ``(n, n)``; the block is
built, and summed, in row chunks of ``_CHUNK_ELEMENTS`` elements.

The arithmetic is the dense oracle's, operation for operation —
:func:`~repro.phy.gain.received_power_matrix` over the slot's nodes fed to
:meth:`~repro.phy.interference.PhysicalInterferenceModel.link_sinrs`: the
same squared distances, the same ``gain * tx`` products, column sums
accumulated in member order, ``signal / (noise + (total - signal))``.  A
member fails iff that oracle's ``feasible_mask`` fails it
(``tests/property/test_truth_differential.py``), so a slot this module
passes cannot sit an ulp on the wrong side of an independent audit.

:func:`peel_slot` reads a slot as its incidence — one
``(transmitters, listeners)`` power block per sub-slot — so the same peel
judges a slot by its recipe (:func:`geometry_incidence`) or by a model's
own entries, noise and budget (:func:`power_incidence`: a dense or
untruncated matrix, exact already), bit for bit alike on the same powers.
``greedy_physical.repair`` picks the one that is exact for its model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.phy.propagation import PropagationModel
from repro.phy.sinr import GATHER_ELEMENTS

#: Elements per temporary while a gain block is built and summed: 128 KiB of
#: float64, cache-resident (twice as fast here as ``GATHER_ELEMENTS``-sized
#: temporaries) and bounded whatever the slot width.
_CHUNK_ELEMENTS = GATHER_ELEMENTS >> 6

class Geometry(NamedTuple):
    """The recipe of a received-power matrix: ``P[i, j] = tx_power_mw[i] *
    propagation.gain(|positions[i] - positions[j]|)``."""

    positions: np.ndarray
    tx_power_mw: np.ndarray
    propagation: PropagationModel


def geometry_incidence(
    geometry: Geometry, senders: np.ndarray, receivers: np.ndarray, noise_mw: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The exact ``(data, ack, noise)`` incidence of one slot (see
    :func:`peel_slot`) from the recipe: one gain block ``G[i, j] =
    gain(|s_i - r_j|)`` serves both sub-slots (the channel is reciprocal),
    each scaled by its transmitters' power."""
    sx, sy = geometry.positions[senders].T
    rx, ry = geometry.positions[receivers].T
    k = sx.size
    gain = np.empty((k, k), dtype=float)
    step = max(1, _CHUNK_ELEMENTS // max(k, 1))
    for lo in range(0, k, step):
        dx = sx[lo : lo + step, None] - rx
        dy = sy[lo : lo + step, None] - ry
        gain[lo : lo + step] = geometry.propagation.gain(np.sqrt(dx * dx + dy * dy))
    tx = geometry.tx_power_mw
    ack = np.empty_like(gain)
    np.multiply(gain.T, tx[receivers, None], out=ack)
    gain *= tx[senders, None]
    return gain, ack, noise_mw


def power_incidence(model, senders: np.ndarray, receivers: np.ndarray):
    """The ``(data, ack, noise)`` incidence of one slot (see
    :func:`peel_slot`) a ``PhysicalInterferenceModel`` charges: its power
    entries, and its noise plus any per-node budget at each listener."""
    power, noise = model.power, model.radio.noise_mw
    if model.budget_mw is not None:
        noise = noise + model.budget_mw[np.stack([receivers, senders])]
    return power[senders[:, None], receivers], power[receivers[:, None], senders], noise


def _on_air(
    data: np.ndarray, ack: np.ndarray, snd: np.ndarray, rcv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(signal, total, deaf)`` of a slot, each ``(2, k)``: row 0 is the
    data sub-slot (members' receivers listen), row 1 the ACK sub-slot
    (their senders do).

    ``total`` is every member's power landing on each listener — column
    sums of each ``(transmitters, listeners)`` block accumulated
    transmitter after transmitter, the order the dense mesh of
    :func:`~repro.phy.sinr.sinr_for_links` reduces in (numpy sums the
    rows of a C-ordered block in sequence).  Transmitters come in chunks,
    so each later chunk's reduction starts from the running total.
    ``deaf`` marks listeners that transmit in the same sub-slot
    (half-duplex).
    """
    k = data.shape[0]
    step = max(1, _CHUNK_ELEMENTS // max(k, 1))
    signal = np.empty((2, k), dtype=float)
    total = np.empty((2, k), dtype=float)
    for sub, block in enumerate((data, ack)):
        signal[sub] = block.diagonal()
        total[sub] = block[:step].sum(axis=0)
        for lo in range(step, k, step):
            total[sub] = np.vstack((total[sub], block[lo : lo + step])).sum(axis=0)
    return signal, total, _deaf(snd, rcv)


def _deaf(snd: np.ndarray, rcv: np.ndarray, alive=slice(None)) -> np.ndarray:
    """``(2, k)`` half-duplex mask over the ``alive`` members' transmissions:
    receivers that send (data sub-slot), senders that receive (ACK)."""
    on = np.zeros((2, max(snd.max(initial=-1), rcv.max(initial=-1)) + 1), dtype=bool)
    on[0, snd[alive]] = on[1, rcv[alive]] = True
    deaf = np.empty((2, snd.size), dtype=bool)
    deaf[0], deaf[1] = on[0, rcv], on[1, snd]
    return deaf


def _sinrs(
    signal: np.ndarray, total: np.ndarray, deaf: np.ndarray, noise_mw
) -> np.ndarray:
    sinr = signal / (noise_mw + (total - signal))
    sinr[deaf] = 0.0
    return sinr


def _margins(signal, total, deaf, noise_mw, beta: float) -> np.ndarray:
    """Per-member ``min(data, ACK) SINR / β``."""
    return _sinrs(signal, total, deaf, noise_mw).min(axis=0) / beta


def link_sinrs(
    geometry: Geometry, senders: np.ndarray, receivers: np.ndarray, noise_mw: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-member (data, ACK) SINRs when the links ``senders[k] ->
    receivers[k]`` share a slot — ``PhysicalInterferenceModel.link_sinrs``
    on the unbudgeted dense matrix, without the matrix."""
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    data, ack, noise = geometry_incidence(geometry, snd, rcv, noise_mw)
    data_sinr, ack_sinr = _sinrs(*_on_air(data, ack, snd, rcv), noise)
    return data_sinr, ack_sinr


def peel_slot(
    incidence: tuple[np.ndarray, np.ndarray, float | np.ndarray],
    senders: np.ndarray,
    receivers: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Remove members, lowest margin first, until the slot decodes.

    ``incidence`` is the slot's ``(data, ack, noise)``: the received
    powers, ``(transmitters, listeners)`` per sub-slot — ``data[i, j]``
    what receiver ``r_j`` hears from sender ``s_i``, ``ack[j, i]`` what
    sender ``s_i`` hears from receiver ``r_j``, both C-ordered — and the
    noise floor, a scalar or ``(2, k)`` per listener (row 0 the receivers,
    row 1 the senders).

    Returns ``(kept, margin, found)``: the ascending positions of the
    members that stay, their ``min(data, ACK) SINR / β`` evaluated from
    scratch on exactly that set (never from decremented sums, so the
    verdict is the one an independent audit reaches), and how many members
    failed before anything was removed.  Ties go to the earliest position.
    A member that cannot decode even alone is removed too (``kept`` is
    then empty); only a from-scratch evaluation of it alone decides that.
    """
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    full_data, full_ack, full_noise = incidence
    kept = np.arange(snd.size)
    found = None
    while True:
        data, ack, noise = full_data, full_ack, full_noise
        if kept.size < snd.size:
            data, ack = data[kept[:, None], kept], ack[kept[:, None], kept]
            noise = noise if np.ndim(noise) == 0 else noise[:, kept]
        s, r = snd[kept], rcv[kept]
        signal, total, deaf = _on_air(data, ack, s, r)
        margin = _margins(signal, total, deaf, noise, beta)
        if found is None:
            found = int((margin < 1.0).sum())
        if not (margin < 1.0).any():
            return kept, margin, found
        if kept.size == 1:
            return kept[:0], margin[:0], found
        # O(k) per removal off the running totals; the survivors are then
        # re-evaluated from scratch by the next pass of the outer loop.
        shares = bool(deaf.any())
        alive = np.ones(kept.size, dtype=bool)
        for _ in range(kept.size - 1):
            worst = int(margin.argmin())
            if margin[worst] >= 1.0:
                break
            alive[worst] = False
            total[0] -= data[worst]
            total[1] -= ack[worst]
            if shares:
                deaf = _deaf(s, r, alive)
            margin = _margins(signal, total, deaf, noise, beta)
            margin[~alive] = np.inf
        kept = kept[alive]


@dataclass(frozen=True, eq=False)
class TruthReport:
    """What the exact check found in a list of slots.

    ``violations`` counts members that failed ``SINR >= β`` when their slot
    was first evaluated; ``margins`` holds ``min(data, ACK) SINR / β`` of
    every member of the slots as they stand (after any repair), in slot
    order.  The verify-and-repair pass (``greedy_physical.repair``) also
    books the memberships it re-packed and the rounds that took; a plain
    :func:`check_slots` leaves both at 0.
    """

    violations: int
    margins: np.ndarray
    repaired_tx: int = 0
    repair_rounds: int = 0


def check_slots(
    geometry: Geometry,
    slots: Iterable[tuple[np.ndarray, np.ndarray]],
    noise_mw: float,
    beta: float,
) -> TruthReport:
    """Exact verdict on ``(senders, receivers)`` slots, nothing repaired."""
    margins = [np.empty(0, dtype=float)]
    for senders, receivers in slots:
        data, ack = link_sinrs(geometry, senders, receivers, noise_mw)
        margins.append(np.minimum(data, ack) / beta)
    flat = np.concatenate(margins)
    return TruthReport(int((flat < 1.0).sum()), flat)
