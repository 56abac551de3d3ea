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

#: Bin edges (in units of β) of :meth:`TruthReport.histogram`.
MARGIN_EDGES = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0, np.inf)


class Geometry(NamedTuple):
    """The recipe of a received-power matrix: ``P[i, j] = tx_power_mw[i] *
    propagation.gain(|positions[i] - positions[j]|)``."""

    positions: np.ndarray
    tx_power_mw: np.ndarray
    propagation: PropagationModel


def gain_block(
    geometry: Geometry, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """``G[i, j] = gain(|s_i - r_j|)`` for one slot's ``k`` members."""
    sx, sy = geometry.positions[senders].T
    rx, ry = geometry.positions[receivers].T
    k = sx.size
    out = np.empty((k, k), dtype=float)
    step = max(1, _CHUNK_ELEMENTS // max(k, 1))
    for lo in range(0, k, step):
        dx = sx[lo : lo + step, None] - rx
        dy = sy[lo : lo + step, None] - ry
        out[lo : lo + step] = geometry.propagation.gain(np.sqrt(dx * dx + dy * dy))
    return out


def _on_air(
    gain: np.ndarray,
    snd: np.ndarray,
    rcv: np.ndarray,
    tx_snd: np.ndarray,
    tx_rcv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(signal, total, deaf)`` of a slot, each ``(2, k)``: row 0 is the
    data sub-slot (members' receivers listen), row 1 the ACK sub-slot
    (their senders do).

    ``total`` is every member's power landing on each listener — column
    sums of a ``(transmitters, listeners)`` incidence accumulated
    transmitter after transmitter, the order the dense mesh of
    :func:`~repro.phy.sinr.sinr_for_links` reduces in.  Transmitters come
    in chunks, so each chunk's reduction starts from the running total
    (``0.0 + x`` is ``x`` exactly).  ``deaf`` marks listeners that
    transmit in the same sub-slot (half-duplex).
    """
    k = gain.shape[0]
    step = max(1, _CHUNK_ELEMENTS // max(k, 1))
    total = np.zeros((2, k), dtype=float)
    rows = np.empty((min(step, k) + 1, k), dtype=float)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        # Transmitters lo..hi of each sub-slot: senders (rows of the gain
        # block), then receivers sending ACKs (its columns).
        for sub, (chunk, tx) in enumerate(
            ((gain[lo:hi], tx_snd), (gain[:, lo:hi].T, tx_rcv))
        ):
            rows[0] = total[sub]
            np.multiply(chunk, tx[lo:hi, None], out=rows[1 : hi - lo + 1])
            total[sub] = rows[: hi - lo + 1].sum(axis=0)
    own = np.diagonal(gain)
    signal = np.stack([tx_snd * own, tx_rcv * own])
    return signal, total, np.stack([np.isin(rcv, snd), np.isin(snd, rcv)])


def _sinrs(
    signal: np.ndarray, total: np.ndarray, deaf: np.ndarray, noise_mw: float
) -> np.ndarray:
    sinr = signal / (noise_mw + (total - signal))
    sinr[deaf] = 0.0
    return sinr


def _margins(signal, total, deaf, noise_mw: float, beta: float) -> np.ndarray:
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
    tx = geometry.tx_power_mw
    gain = gain_block(geometry, snd, rcv)
    data, ack = _sinrs(*_on_air(gain, snd, rcv, tx[snd], tx[rcv]), noise_mw)
    return data, ack


def peel_slot(
    geometry: Geometry,
    senders: np.ndarray,
    receivers: np.ndarray,
    noise_mw: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Remove members, lowest margin first, until the slot decodes.

    Returns ``(kept, margin, found)``: the ascending positions of the
    members that stay, their ``min(data, ACK) SINR / β`` evaluated from
    scratch on exactly that set (never from decremented sums, so the
    verdict is the one an independent audit reaches), and how many members
    failed before anything was removed.  Ties go to the earliest position.
    The last member is never removed: alone it has no interferer, and a
    link that cannot decode even alone is not this function's to drop.
    """
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    tx_snd, tx_rcv = geometry.tx_power_mw[snd], geometry.tx_power_mw[rcv]
    full = gain_block(geometry, snd, rcv)
    kept = np.arange(snd.size)
    found = None
    while True:
        gain = full if kept.size == snd.size else full[np.ix_(kept, kept)]
        s, r, ts, tr = snd[kept], rcv[kept], tx_snd[kept], tx_rcv[kept]
        signal, total, deaf = _on_air(gain, s, r, ts, tr)
        margin = _margins(signal, total, deaf, noise_mw, beta)
        if found is None:
            found = int((margin < 1.0).sum())
        if kept.size <= 1 or margin.min() >= 1.0:
            return kept, margin, found
        # O(k) per removal off the running totals; the survivors are then
        # re-evaluated from scratch by the next pass of the outer loop.
        shares = bool(deaf.any())
        alive = np.ones(kept.size, dtype=bool)
        for _ in range(kept.size - 1):
            worst = int(margin.argmin())
            if margin[worst] >= 1.0:
                break
            alive[worst] = False
            total[0] -= ts[worst] * gain[worst]
            total[1] -= tr[worst] * gain[:, worst]
            if shares:
                deaf = np.stack([np.isin(r, s[alive]), np.isin(s, r[alive])])
            margin = _margins(signal, total, deaf, noise_mw, beta)
            margin[~alive] = np.inf
        kept = kept[alive]


@dataclass(frozen=True, eq=False)
class TruthReport:
    """What the exact check found in a list of slots.

    ``violations`` counts members that failed ``SINR >= β`` when their slot
    was first evaluated; ``margins`` holds ``min(data, ACK) SINR / β`` of
    every member of the slots as they stand (after any repair), in slot
    order.  A verify-and-repair pass (``greedy_physical``) also books the
    memberships it re-packed and the rounds that took; a plain
    :func:`check_slots` leaves both at 0.
    """

    violations: int
    margins: np.ndarray
    repaired_tx: int = 0
    repair_rounds: int = 0

    @property
    def margin_min(self) -> float:
        """Smallest kept margin (``inf`` for no members); >= 1 means every
        member decodes."""
        return float(self.margins.min()) if self.margins.size else float("inf")

    def histogram(self) -> np.ndarray:
        """Member counts per :data:`MARGIN_EDGES` bin."""
        return np.histogram(self.margins, bins=MARGIN_EDGES)[0]


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
