"""The paper's physical interference model with data/ACK sub-slots.

A scheduling slot is divided into two sub-slots: all scheduled links send
their *data* packets concurrently in the first sub-slot, and all their *ACKs*
concurrently in the second.  A set of directed links ``{(u_k -> v_k)}`` is
feasible iff for every link ``k``:

* data sub-slot:  ``P_{v_k}(u_k) / (N + Σ_{j≠k} P_{v_k}(u_j)) >= β``
* ACK sub-slot:   ``P_{u_k}(v_k) / (N + Σ_{j≠k} P_{u_k}(v_j)) >= β``

i.e. data packets only interfere with data packets and ACKs only with ACKs
(Section II of the paper, the sub-slot variation of the MobiCom'06 model).

:class:`PhysicalInterferenceModel` binds a received-power matrix and a
:class:`~repro.phy.radio.RadioConfig` together and is the single feasibility
oracle shared by the centralized scheduler, the distributed protocol
handshakes, and the schedule verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.radio import RadioConfig
from repro.phy.sinr import (
    carrier_sense_power,
    mesh_sinrs,
    sinr_for_link_sets,
    sinr_for_links,
)
from repro.util.ranges import expand_ranges, join, split_at


@dataclass(frozen=True)
class PhysicalInterferenceModel:
    """Feasibility oracle for concurrent link sets under physical interference.

    Attributes
    ----------
    power:
        ``(n, n)`` received-power matrix in mW.
    radio:
        Radio constants (``beta``, noise, carrier-sense threshold).
    budget_mw:
        Optional ``(n,)`` per-node far-field interference budget (mW) added
        to the noise floor at each *receiving* node in every SINR check —
        the guard margin the sharded epoch engine reserves at shard
        boundaries for interference scheduled by other shards (see
        :func:`repro.phy.sinr.sinr_for_links` and
        :mod:`repro.traffic.sharded`).  ``None`` (the default) is the exact
        model of the monolithic pipeline.
    """

    power: np.ndarray
    radio: RadioConfig
    budget_mw: np.ndarray | None = None

    def __post_init__(self) -> None:
        if getattr(self.power, "is_sparse_power", False):
            # A SparsePowerMatrix already validated itself and must not be
            # densified; it duck-types every access the kernels perform.
            p = self.power
        else:
            p = np.asarray(self.power, dtype=float)
            object.__setattr__(self, "power", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"power matrix must be square, got shape {p.shape}")
        if self.budget_mw is not None:
            b = np.asarray(self.budget_mw, dtype=float)
            if b.shape != (p.shape[0],):
                raise ValueError(
                    f"budget_mw must have shape ({p.shape[0]},), got {b.shape}"
                )
            if np.any(b < 0):
                raise ValueError("budget_mw entries must be non-negative")
            object.__setattr__(self, "budget_mw", b)

    @property
    def n_nodes(self) -> int:
        return self.power.shape[0]

    def with_budget(self, budget_mw: np.ndarray | None) -> "PhysicalInterferenceModel":
        """This oracle with an extra per-node noise budget *added*.

        Budgets compose additively: when the oracle already carries one
        (the sparse backend's far-field floor), the new budget stacks on
        top rather than replacing it, so shard guard margins and far-field
        floors coexist — both are "extra noise at the receiving node" and
        mW is a linear scale.  An all-zero (or ``None``) budget returns
        ``self`` unchanged, so the degenerate single-shard partition
        schedules through the *identical* model object — the bit-for-bit
        guarantee behind the sharded engine's ``n_shards=1`` equivalence
        harness.
        """
        if budget_mw is None:
            return self
        b = np.asarray(budget_mw, dtype=float)
        if not b.any():
            return self
        if self.budget_mw is not None:
            b = self.budget_mw + b
        return PhysicalInterferenceModel(self.power, self.radio, b)

    def link_sinrs(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-link (data, ACK) SINR arrays for a concurrent link set.

        With a ``budget_mw`` installed, the data check budgets extra noise
        at the data receivers and the ACK check at the data senders (the
        nodes receiving the ACKs).
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        data = sinr_for_links(
            self.power, snd, rcv, self.radio.noise_mw, budget_mw=self.budget_mw
        )
        ack = sinr_for_links(
            self.power, rcv, snd, self.radio.noise_mw, budget_mw=self.budget_mw
        )
        return data, ack

    def _slot_sinrs_flat(
        self, heads: np.ndarray, tails: np.ndarray, slots
    ) -> tuple[np.ndarray, list[int]]:
        """:meth:`slot_sinrs` before the split: all members' values in slot
        order, and each slot's end offset into them."""
        flat, ends = join(slots)
        if flat.size == 0:
            return np.empty(0, dtype=float), ends
        sizes = np.diff([0, *ends])
        valid = np.arange(sizes.max()) < sizes[:, None]
        members = np.zeros(valid.shape, dtype=np.intp)
        members[valid] = flat
        snd = np.asarray(heads, dtype=np.intp)[members]
        rcv = np.asarray(tails, dtype=np.intp)[members]
        return self.set_sinrs(snd, rcv, valid)[valid], ends

    def set_sinrs(
        self, senders: np.ndarray, receivers: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """``min(data, ACK)`` SINR of every entry of ``(S, L)`` padded link
        sets (row ``t`` one concurrent set, padding reads ``0.0``): both
        sub-slots in one :func:`~repro.phy.sinr.sinr_for_link_sets` batch,
        the data sets then the ACK sets (sender and receiver swapped)."""
        tx = np.vstack((senders, receivers))
        rx = np.vstack((receivers, senders))
        on = np.vstack((valid, valid))
        both = sinr_for_link_sets(self.power, tx, rx, on, self.radio.noise_mw, self.budget_mw)
        n_sets = len(senders)
        return np.minimum(both[:n_sets], both[n_sets:])

    def alone_sinrs(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Each link's ``min(data, ACK)`` SINR with nobody else on the air:
        one :meth:`set_sinrs` batch of one-link sets.  Entry ``k`` is what
        :meth:`slot_sinrs` gives the slot ``[k]``, bit for bit: a lone
        member's interference is an exact ``0.0``."""
        heads = np.asarray(heads, dtype=np.intp)[:, None]
        tails = np.asarray(tails, dtype=np.intp)[:, None]
        return self.set_sinrs(heads, tails, np.ones(heads.shape, dtype=bool))[:, 0]

    def slot_sinrs(
        self, heads: np.ndarray, tails: np.ndarray, slots
    ) -> list[np.ndarray]:
        """``min(data, ACK)`` SINR per member of every slot of a schedule.

        ``heads[k] -> tails[k]`` is link ``k``; ``slots`` is a sequence of
        link-index sequences, one independent concurrent set each (a whole
        schedule, a round, or what-if member lists).  Entry ``t`` of the
        result is bit-identical to ``np.minimum(*link_sinrs(heads[slots[t]],
        tails[slots[t]]))`` — but each sub-slot of the whole list costs one
        :func:`~repro.phy.sinr.sinr_for_link_sets` call, not one
        :func:`~repro.phy.sinr.sinr_for_links` call per slot.  Empty slots
        yield empty arrays.
        """
        return split_at(*self._slot_sinrs_flat(heads, tails, slots))

    def feasible_mask(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """Boolean per-link mask: does link ``k`` decode (data *and* ACK)?

        Note this is the *per-link outcome when all listed links transmit*;
        a slot is feasible only when the mask is all-True.  The distributed
        handshake of the protocols observes exactly this mask (each link
        learns only its own bit).
        """
        data, ack = self.link_sinrs(senders, receivers)
        beta = self.radio.beta
        return (data >= beta) & (ack >= beta)

    def is_feasible(self, senders: np.ndarray, receivers: np.ndarray) -> bool:
        """True iff *all* links in the set decode concurrently."""
        mask = self.feasible_mask(senders, receivers)
        return bool(mask.all())

    def handshake_mask(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """Per-link two-way handshake outcomes with *conditional* ACKs.

        Unlike :meth:`feasible_mask` (which assumes every scheduled ACK is
        on the air — the right worst case for slot feasibility), this models
        the handshake as executed: a receiver that fails to decode the data
        packet sends no ACK, so the ACK sub-slot only carries ACKs of links
        whose data decoded.  For sets where all data packets decode the two
        masks coincide; they can differ on infeasible sets, where absent
        ACKs reduce ACK-sub-slot interference.
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        if snd.size == 0:
            return np.zeros(0, dtype=bool)
        beta = self.radio.beta
        noise = self.radio.noise_mw

        data_sinr = sinr_for_links(self.power, snd, rcv, noise, budget_mw=self.budget_mw)
        data_ok = data_sinr >= beta

        success = np.zeros(snd.shape, dtype=bool)
        if data_ok.any():
            ack_senders = rcv[data_ok]
            ack_receivers = snd[data_ok]
            ack_sinr = sinr_for_links(
                self.power, ack_senders, ack_receivers, noise, budget_mw=self.budget_mw
            )
            success[data_ok] = ack_sinr >= beta
        return success

    def handshake_trials(
        self, senders: np.ndarray, receivers: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`handshake_mask` over independent what-if link sets.

        ``senders`` / ``receivers`` / ``valid`` are ``(trials, L)`` arrays;
        row ``t`` lists one concurrent link set, padded to the common width
        with ``valid[t] == False`` entries (whose indices may be anything in
        range).  Row ``t`` of the result equals
        ``handshake_mask(senders[t, valid[t]], receivers[t, valid[t]])`` —
        bit for bit, by the padding argument of
        :func:`~repro.phy.sinr.sinr_for_link_sets`, whose mesh this runs on
        for both sub-slots: links whose data packet failed are simply
        padding in the ACK sub-slot.  Padding entries report ``False``.

        The protocol's hot path, so it enters the mesh directly: dense power
        matrices only, and the caller bounds ``trials * L * L``
        (:meth:`~repro.core.fast_runtime.FastRuntime.resolve_trials` does).
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        live = np.asarray(valid, dtype=bool)
        beta = self.radio.beta
        data_noise = ack_noise = self.radio.noise_mw
        if self.budget_mw is not None:
            data_noise = data_noise + self.budget_mw[rcv]
            ack_noise = ack_noise + self.budget_mw[snd]
        # Padding and deaf receivers report SINR 0.0 < beta.  Conditional
        # ACKs: only links whose data decoded answer.
        data_ok = mesh_sinrs(self.power, snd, rcv, live, data_noise) >= beta
        return mesh_sinrs(self.power, rcv, snd, data_ok, ack_noise) >= beta

    def sense_mask(self, transmitters: np.ndarray) -> np.ndarray:
        """Which nodes carrier-sense activity given concurrent transmitters?

        A node detects activity when the *sum* of received powers from all
        transmitters exceeds the CS threshold.  Transmitting nodes are
        reported as sensing (they know they transmit); half-duplex handling
        is done by callers that need it.
        """
        tx = np.asarray(transmitters, dtype=np.intp)
        total = np.zeros(self.n_nodes, dtype=float)
        if tx.size:
            total = carrier_sense_power(self.power, tx, self.n_nodes)
            total[tx] = np.inf  # own transmission always "sensed"
        return total >= self.radio.cs_threshold_mw


#: Most slots a :class:`SlotSinrMemo` remembers: patches re-create slots of
#: epochs before (``sessions_patch_8x8``: ~800 in 91 epochs, ~2 500 in 600).
MEMO_SLOTS = 4096


class SlotSinrMemo:
    """:meth:`PhysicalInterferenceModel.slot_sinrs` over a flat round,
    evaluating each distinct slot once, keyed by its ordered member tuple
    (link indices into ``heads`` / ``tails``).  A remembered entry is what
    a fresh call would return, bit for bit: a slot's row of
    ``sinr_for_link_sets`` equals ``sinr_for_links`` on that slot whatever
    else shares the batch.  A one-member slot is never keyed nor
    evaluated: it reads :attr:`alone`, every link's standalone SINR,
    computed once with the memo.  Bound to one ``model`` (a budgeted oracle
    gets its own memo).  Past :data:`MEMO_SLOTS` entries it forgets the
    oldest, never a slot the current call asks for.
    """

    def __init__(self, model: PhysicalInterferenceModel, heads, tails):
        self.model = model
        self._heads = heads
        self._tails = tails
        self.alone = model.alone_sinrs(heads, tails)
        self._seen: dict[tuple[int, ...], np.ndarray] = {}

    def __call__(self, members, ends) -> np.ndarray:
        """``min(data, ACK)`` SINR of every membership of the flat round
        ``members`` (slot ``t`` is ``members[ends[t - 1]:ends[t]]``): every
        member read from :attr:`alone` in one gather, then the slots of two
        or more members overwritten with their entries, those not seen
        before evaluated in one batch."""
        members = np.asarray(members, dtype=np.intp)
        ends = np.asarray(ends, dtype=np.intp)
        worst = self.alone[members]
        sizes = np.diff(ends, prepend=0)
        shared = sizes > 1
        _, at = expand_ranges(ends[shared] - sizes[shared], ends[shared])
        flat = members[at].tolist()
        cuts = np.cumsum(sizes[shared]).tolist()
        keys = [tuple(flat[a:b]) for a, b in zip([0, *cuts], cuts)]
        seen = self._seen
        missing = list(dict.fromkeys(k for k in keys if k not in seen))
        if missing:
            values, cuts = self.model._slot_sinrs_flat(self._heads, self._tails, missing)
            seen.update(zip(missing, split_at(values, cuts)))
        if len(seen) > MEMO_SLOTS:
            asked = set(keys)
            for key in [key for key in seen if key not in asked][: len(seen) - MEMO_SLOTS]:
                del seen[key]
        if keys:
            worst[at] = np.concatenate([seen[key] for key in keys])
        return worst
