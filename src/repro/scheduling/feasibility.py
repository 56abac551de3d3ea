"""The slot-admission test, in its SINR-kernel and its incremental forms.

The paper has one admission test (Section II): may link e join this slot —
does every member, and the newcomer, keep data and ACK ``SINR >= β``?
Two implementations remain in the library:

* :func:`what_if_sinrs` — the test as the exact model states it: every
  member's SINR with the candidate on the air, from the batched kernel
  (:func:`~repro.phy.sinr.sinr_for_link_sets`) that ``feasible_mask`` and
  the audit judge schedules with.  One call covers a whole row of
  candidates against one slot, and the same SINRs give the rate tiers
  ``greedy_rate`` maximizes; ``optimal`` runs it per search node.
* :class:`SlotArena` — per-member interference sums kept across
  admissions, so a test is O(k) in the slot's members instead of the
  kernel's O(k²), one candidate against *every* slot of a schedule at
  once.  Dense power is read through flat member columns; a
  ``SparsePowerMatrix`` through per-node slot tables.  Reading dense power
  through the tables was measured (DESIGN.md §3): −32 % on
  ``sessions_patch_8x8``'s ``decodable_tx_per_s``, so both branches stay.
  One kernel reads the tables, a batch of candidates per pass
  (``can_add_many`` / ``add_many``; ``first_fit`` is the two on one
  gather), which ``greedy_physical`` feeds a *wave* of mutually
  unreachable links; the one-link entries (``can_add_all``, ``add``,
  ``seed``) are batches of it.

``greedy_physical``'s first-fit packer (which its repair pass, and so the
sharded engine's reconciliation, reuses) and ``patch_schedule`` build their
slots in an arena; :func:`feasible_alone` is the standalone screen (a slot
of one) they apply before opening a fresh slot.  The arena's verdicts are pinned, bit for bit, to a scalar per-slot
oracle in the test suite, and its slots to the exact model by the schedule
audits.
"""

from __future__ import annotations

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.schedule import Schedule


def feasible_alone(
    model: PhysicalInterferenceModel, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """One bool per link: does ``senders[k] -> receivers[k]`` decode alone?

    The communication-graph membership test of Section II — data packet and
    ACK both clear ``β`` against noise (plus the model's budget at each
    receiving node) with nobody else on the air — and the arena's verdict
    on an empty slot, bit for bit.  A link that fails it fails every
    admission test, so it can only ever be served by a slot of its own.
    """
    snd = np.asarray(senders, dtype=np.intp)
    rcv = np.asarray(receivers, dtype=np.intp)
    p = model.power
    beta = model.radio.beta
    data_noise = ack_noise = model.radio.noise_mw
    if model.budget_mw is not None:
        data_noise = data_noise + model.budget_mw[rcv]
        ack_noise = ack_noise + model.budget_mw[snd]
    ok = snd != rcv
    ok &= ~(p[snd, rcv] < beta * data_noise)
    ok &= ~(p[rcv, snd] < beta * ack_noise)
    return ok


def what_if_sinrs(
    model: PhysicalInterferenceModel, heads, tails, members, candidates
) -> tuple[np.ndarray, np.ndarray]:
    """The slot ``members`` (link indices into ``heads -> tails``, in
    order) with each of ``candidates`` added, every candidate its own
    what-if set, all in one batched kernel call.

    Returns ``(free, sinrs)``: the candidates that share no node with a
    member, in order — with ``β > 1`` their SINRs would refuse them anyway
    (a shared sender or receiver cannot clear ``β`` twice, a node that
    sends is deaf), so dropping them first only shrinks the batch — and
    ``sinrs[c]``, the ``min(data, ACK)`` SINR of every member and then of
    ``free[c]``.  Candidate ``c`` may join iff ``sinrs[c]`` all clear ``β``.
    """
    busy = np.zeros(model.n_nodes, dtype=bool)
    busy[heads[members]] = busy[tails[members]] = True
    free = candidates[~(busy[heads[candidates]] | busy[tails[candidates]])]
    sets = np.empty((free.size, len(members) + 1), dtype=np.intp)
    sets[:, :-1] = members
    sets[:, -1] = free
    return free, model.set_sinrs(heads[sets], tails[sets], np.ones(sets.shape, dtype=bool))


#: Initial slot-axis capacity of the sparse arena's per-node slot tables
#: (doubles on demand, like the member-row columns).
_SLOT_CAPACITY = 16


class SlotArena:
    """All slots of a schedule under construction, in flat numpy columns.

    Five columns (``slot_id``, member sender / receiver, data / ACK
    interference sums) are kept persistently, appended in admission order
    with capacity doubling, so a batched admission test does no
    Python-level per-member work.

    Two test paths, one verdict:

    * dense — the scalar per-slot test (each member's interference a left
      fold over the others in admission order) over all member rows at
      once: the per-slot sums are ``np.bincount`` segment sums, whose C
      loop accumulates weights in input order — the member order the
      scalar fold sums in, so the verdicts are bit-identical;
    * sparse (auto-selected when the model's power is a
      :class:`~repro.phy.sparse.SparsePowerMatrix`) — per-node *slot
      tables* of shape ``(n, slot_capacity)``, the slot axis doubling on
      demand.  For node ``v`` and slot ``j`` they hold the member row that
      receives / transmits at ``v`` (``-1`` if none) and the running data /
      ACK power landing on ``v`` from slot ``j``'s members, accumulated in
      admission order as each member's CSR rows are folded in.  A test
      then reads the candidate's two CSR rows and nothing else of the
      power matrix: its own interference sums sit in the tables, node
      sharing is a table lookup, and the only members rechecked are those
      with an endpoint in the candidate's rows — O(degree × slots) per
      candidate, no key search.  Everything skipped is *exactly* ``0.0``
      in the dense sums, and a member the candidate's rows do not reach
      receives no contribution, so — because every admitted member is
      feasible at admission time and additions only recheck — it cannot
      flip: the verdict is bit-identical to the dense one.  That
      member-feasibility invariant is the callers' to keep, since
      :meth:`seed` and :meth:`add` insert unconditionally: greedy
      packing (its repair pass included) screens with
      :func:`feasible_alone`, and a patch seeds slots only with subsets of
      feasible cached slots (removals lower interference).
      The tables assume one member per node per slot, which
      :meth:`add_many` enforces.  One kernel reads them:
      :meth:`can_add_many` / :meth:`add_many` test and fold a batch of
      links in one pass (the tables stored stacked, data side over ACK
      side, so one gather of the batch's CSR rows serves both), and
      :meth:`can_add_all`, :meth:`add` and :meth:`seed` are batches of it.

    All powers in mW; thresholds from the bound interference model.
    ``tests/property/test_scheduling_properties.py`` pins sparse-arena ≡
    dense-arena ≡ the scalar oracle of ``tests/conftest.py`` verdict by
    verdict over random admission sequences.
    """

    def __init__(self, model: PhysicalInterferenceModel, capacity: int = 256):
        self._power = model.power
        self._noise = model.radio.noise_mw
        self._beta = model.radio.beta
        self._budget = model.budget_mw
        self._use_sparse = bool(getattr(model.power, "is_sparse_power", False))
        cap = max(int(capacity), 1)
        self._slot_id = np.empty(cap, dtype=np.intp)
        self._msnd = np.empty(cap, dtype=np.intp)
        self._mrcv = np.empty(cap, dtype=np.intp)
        self._m = 0
        self.n_slots = 0
        if self._use_sparse:
            n = model.power.n
            # Stacked storage, data side first: the kernel walks both sides
            # in one pass.  Member interference sums and each member's own
            # signal power (stored once at admission instead of re-read on
            # every test) ...
            self._interf = np.empty((2, cap), dtype=float)
            self._sig = np.empty((2, cap), dtype=float)
            self._columns = ["_slot_id", "_msnd", "_mrcv", "_interf", "_sig"]
            # ... and slot tables over *listening cells*: cell v hears data
            # at node v, cell n + v hears ACKs at node v.  Member row
            # listening at [cell, j] ...
            shape = (2 * n, _SLOT_CAPACITY)
            self._listener = np.full(shape, -1, dtype=np.int32)
            # ... and power landing on the cell from slot j's members.
            self._landing = np.zeros(shape, dtype=float)
            self._cell_budget = None if self._budget is None else np.tile(self._budget, 2)
        else:
            # Gathers read ``_flat[row * n + col]``, several-fold faster.
            self._flat = np.ascontiguousarray(model.power).reshape(-1)
            self._di = np.empty(cap, dtype=float)
            self._ai = np.empty(cap, dtype=float)
            self._columns = ["_slot_id", "_msnd", "_mrcv", "_di", "_ai"]

    def __len__(self) -> int:
        return self.n_slots

    @property
    def n_members(self) -> int:
        return self._m

    def members(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """(senders, receivers) of one slot, in admission order."""
        rows = np.flatnonzero(self._slot_id[: self._m] == slot)
        return self._msnd[rows], self._mrcv[rows]

    def _ensure_capacity(self, extra: int = 1) -> None:
        cap = self._slot_id.size
        if self._m + extra <= cap:
            return
        while cap < self._m + extra:
            cap *= 2
        for name in self._columns:
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (cap,), dtype=old.dtype)
            new[..., : self._m] = old[..., : self._m]
            setattr(self, name, new)

    def _ensure_slot_capacity(self, n_slots: int) -> None:
        width = self._listener.shape[1]
        if n_slots <= width:
            return
        grown = width
        while grown < n_slots:
            grown *= 2
        for name, empty in (("_listener", -1), ("_landing", 0.0)):
            old = getattr(self, name)
            new = np.full((old.shape[0], grown), empty, dtype=old.dtype)
            new[:, :width] = old
            setattr(self, name, new)

    def open_slot(self, sender: int, receiver: int) -> int:
        """Append a fresh slot seeded with one member; return its index
        (:meth:`seed` of one slot).

        The insert is unconditional — callers screen the link with
        :func:`feasible_alone` first, which is what keeps the
        member-feasibility invariant the sparse path relies on.
        """
        j = self.n_slots
        self.seed([j], [sender], [receiver])
        return j

    def seed(self, slot_of, senders, receivers) -> None:
        """Append whole slots, untested: link ``senders[i] -> receivers[i]``
        joins slot ``slot_of[i]``, which runs ``n_slots, n_slots + 1, ...``
        without gaps, each slot's members in admission order.

        Bit for bit :meth:`open_slot` of each slot's first member and
        :meth:`add` of the rest, in turn.  There member ``p``'s sums are the
        left fold ``0.0 + x_0 + x_1 + ...`` of the other members' powers in
        admission order: the ``bincount`` at its admission, then one ``+=``
        per later member.  Dense, that fold is one ``(slots, K, K)`` gather
        with the diagonal and the padding set to an exact ``0.0``, summed
        column by column — ``x + 0.0 == x`` for the non-negative partial
        sums.  Sparse, it is one :meth:`add_many` per member position ``p``
        (the ``p``-th member of every slot), ``p`` ascending: members of
        distinct slots never write the same ``(cell, slot)``, and each slot
        folds its members in admission order.  Member rows are then
        numbered position by position rather than slot by slot.
        """
        if self._use_sparse:
            slot = np.asarray(slot_of, dtype=np.intp)
            snd = np.asarray(senders, dtype=np.intp)
            rcv = np.asarray(receivers, dtype=np.intp)
            pos = np.arange(slot.size) - slot.searchsorted(slot)
            for p in range(int(pos.max(initial=-1)) + 1):
                at = pos == p
                self.add_many(slot[at], snd[at], rcv[at])
            return
        slots = np.asarray(slot_of, dtype=np.intp).tolist()
        if not slots:
            return
        first = self.n_slots
        self.n_slots = slots[-1] + 1
        self._ensure_capacity(len(slots))
        if len(slots) == self.n_slots - first:  # singletons hear nobody
            self._append(slots, senders, receivers, 0.0, 0.0)
            return
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        at = np.asarray(slots, dtype=np.intp) - first
        sizes = np.bincount(at)
        width = int(sizes.max())
        # Slot j's member at position p is grid[j, p]; padding reads member
        # 0 and is masked out with the diagonal (a member's own signal).
        pos = np.arange(at.size) - (np.cumsum(sizes) - sizes)[at]
        grid = np.zeros((sizes.size, width), dtype=np.intp)
        grid[at, pos] = np.arange(at.size)
        live = np.arange(width) < sizes[:, None]
        pair = live[:, None, :] & live[:, :, None] & ~np.eye(width, dtype=bool)
        gs, gr = snd[grid], rcv[grid]
        # [j, p, q]: member q's data at member p's receiver, its ACK at p's sender.
        p = self._power
        data = np.where(pair, p[gs[:, None, :], gr[:, :, None]], 0.0)
        ack = np.where(pair, p[gr[:, None, :], gs[:, :, None]], 0.0)
        di = np.zeros(grid.shape)
        ai = np.zeros(grid.shape)
        for q in range(width):
            di += data[:, :, q]
            ai += ack[:, :, q]
        self._append(slots, snd, rcv, di[at, pos], ai[at, pos])

    def _append(self, slots: list[int], senders, receivers, di, ai) -> None:
        """Write one member row per entry of ``slots`` (capacity ensured)."""
        new = slice(self._m, self._m + len(slots))
        self._slot_id[new] = slots
        self._msnd[new] = senders
        self._mrcv[new] = receivers
        self._di[new] = di
        self._ai[new] = ai
        self._m = new.stop

    def add(self, slot, sender: int, receiver: int) -> None:
        """Admit the link to a slot, or to several distinct slots at once,
        unconditionally (caller pre-approved).

        The scalar per-slot fold, bit for bit: existing
        members' sums grow element-wise by the newcomer's contribution, and
        the newcomer's own sums accumulate over members in admission order
        (a ``bincount`` keyed by slot — C-loop sequential per bin, the order
        the scalar loop adds in; on the sparse path, one :meth:`add_many`,
        the slot tables have been running that very sum since the slot
        opened).

        Raises ``ValueError`` on the sparse path, before anything is
        written, if an endpoint already sends or receives in a slot: the
        slot tables hold one member per node per slot.
        """
        into = np.atleast_1d(slot).tolist()
        if self._use_sparse:
            self.add_many(into, [sender] * len(into), [receiver] * len(into))
            return
        self._ensure_capacity(len(into))
        # The target slots' member rows (ascending) and positions in ``into``.
        where = np.full(self.n_slots, -1)
        where[into] = np.arange(len(into))
        key = where[self._slot_id[: self._m]]
        r = np.flatnonzero(key >= 0)
        key = key[r]
        k = r.size
        ms = self._msnd[r]
        mr = self._mrcv[r]
        # One fused gather for all four member/newcomer power reads — a
        # pure gather, so splitting it differently never changes a value,
        # and the bincount sums below keep their exact order.
        nodes = self._power.shape[0]
        to_members = (mr + sender * nodes, ms + receiver * nodes)
        from_members = (ms * nodes + receiver, mr * nodes + sender)
        vals = self._flat.take(np.concatenate(to_members + from_members))
        self._di[r] += vals[:k]
        self._ai[r] += vals[k : 2 * k]
        new_di = np.bincount(key, weights=vals[2 * k : 3 * k], minlength=len(into))
        new_ai = np.bincount(key, weights=vals[3 * k :], minlength=len(into))
        self._append(into, sender, receiver, new_di, new_ai)

    def can_add_all(self, sender: int, receiver: int) -> np.ndarray:
        """One candidate against every slot: ``out[j] == slot j can admit``.

        Bit-identical, on either path, to the scalar per-slot test run
        slot by slot; sparse, it is :meth:`can_add_many` of one candidate.
        """
        if self._use_sparse:
            return self.can_add_many([sender], [receiver])[0]
        return self.admit_sinrs(sender, receiver)[0]

    def admit_sinrs(self, sender: int, receiver: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`can_add_all` and the candidate's ``min(data, ACK)`` SINR
        in every slot: where it admits, bit for bit the last entry of
        :func:`what_if_sinrs` over ``members + [candidate]``, the test's sum
        written as the kernel writes it (own power added, then taken out)."""
        n = self.n_slots
        if n == 0 or sender == receiver:
            return np.zeros(n, dtype=bool), np.zeros(n)
        if self._use_sparse:
            snd, rcv = np.array([sender]), np.array([receiver])
            reach = self._reach(snd, rcv)
            listens, sig = reach[4:]
            extra = 0.0 if self._budget is None else self._cell_budget[listens]
            ok = self._verdicts(snd, rcv, reach)[0]
            own = sig, np.broadcast_to(self._noise + extra, 2), self._landing[listens, :n]
        else:
            terms = self._dense_terms(sender, receiver)
            sid, shared, cand_data, cand_ack, data_bad, ack_bad, own = terms
            blocked = np.zeros(n, dtype=bool)
            blocked[sid[shared | data_bad | ack_bad]] = True
            ok = cand_data & cand_ack & ~blocked
        (sd, sa), (zd, za), (idata, iack) = own
        return ok, np.minimum(sd / (zd + ((idata + sd) - sd)), sa / (za + ((iack + sa) - sa)))

    def _dense_terms(self, sender: int, receiver: int):
        """The dense admission test of one candidate against every slot, in
        pieces: per member ``sid`` (its slot), ``shared`` (an endpoint in
        common with the candidate), ``data_bad`` / ``ack_bad`` (its data /
        ACK below threshold with the candidate on the air); per slot
        ``cand_data`` / ``cand_ack`` (the candidate's own data / ACK clear
        it) and ``own`` (its data / ACK signals, noises and interference).
        :meth:`admit_sinrs` and :meth:`handshake_verdicts` reduce them."""
        n = self.n_slots
        noise = self._noise
        beta = self._beta
        budget = self._budget
        data_noise = noise if budget is None else noise + budget[receiver]
        ack_noise = noise if budget is None else noise + budget[sender]
        m = self._m
        sid = self._slot_id[:m]
        msnd = self._msnd[:m]
        mrcv = self._mrcv[:m]
        di = self._di[:m]
        ai = self._ai[:m]

        ends = np.zeros(self._power.shape[0], dtype=bool)
        ends[sender] = ends[receiver] = True
        shared = ends[msnd] | ends[mrcv]

        # All six power reads — the candidate pair plus the four member
        # cross terms — in one fused gather (a pure gather: grouping the
        # lookups differently can never change a value, so the verdicts
        # below stay bit-identical to the unfused formula).
        k = sid.size
        nodes = self._power.shape[0]
        srow, rrow = msnd * nodes, mrcv * nodes
        pair = [sender * nodes + receiver, receiver * nodes + sender]
        cross = (srow + receiver, rrow + sender, mrcv + sender * nodes, msnd + receiver * nodes)
        vals = self._flat.take(np.concatenate((pair, *cross, srow + mrcv, rrow + msnd)))
        seg = [slice(i * k + 2, (i + 1) * k + 2) for i in range(6)]

        new_data_interf = np.bincount(sid, weights=vals[seg[0]], minlength=n)
        new_ack_interf = np.bincount(sid, weights=vals[seg[1]], minlength=n)
        cand_data = ~(vals[0] < beta * (data_noise + new_data_interf))
        cand_ack = ~(vals[1] < beta * (ack_noise + new_ack_interf))

        member_data_noise = noise if budget is None else noise + budget[mrcv]
        member_ack_noise = noise if budget is None else noise + budget[msnd]
        data_bad = vals[seg[4]] < beta * (member_data_noise + (di + vals[seg[2]]))
        ack_bad = vals[seg[5]] < beta * (member_ack_noise + (ai + vals[seg[3]]))
        own = vals[:2], (data_noise, ack_noise), (new_data_interf, new_ack_interf)
        return sid, shared, cand_data, cand_ack, data_bad, ack_bad, own

    def handshake_verdicts(self, sender: int, receiver: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense arena: :meth:`can_add_all` plus, per slot, whether a
        member would *object* — fail its own two-way handshake with the
        candidate on the air, as FDD's construction step runs it (every
        member and the candidate send data; only receivers that decoded
        answer with an ACK; a node that transmits is deaf).

        A member objects iff its receiver is the candidate's sender (deaf),
        or some member's data fails, or the candidate's data decodes and
        then some member's ACK fails.  Otherwise only the members' own ACKs
        are on the air, which the slot clears as admitted.  The candidate's
        data cannot decode at a receiver that sends; a receiver shared with
        a member is no special case (both data terms are real).  Slots
        that admit have no objection.
        """
        if self._use_sparse:
            raise ValueError("handshake_verdicts needs a dense power matrix")
        n = self.n_slots
        sid, shared, cand_data, cand_ack, data_bad, ack_bad, _ = self._dense_terms(
            sender, receiver
        )

        def per_slot(flags: np.ndarray) -> np.ndarray:
            return np.bincount(sid, weights=flags, minlength=n) > 0

        data_objects = per_slot(data_bad)
        ack_objects = per_slot(ack_bad)
        admits = cand_data & cand_ack & ~per_slot(shared) & ~data_objects & ~ack_objects
        deaf_member = per_slot(self._mrcv[: self._m] == sender)
        deaf_candidate = per_slot(self._msnd[: self._m] == receiver)
        objects = deaf_member | data_objects | (cand_data & ~deaf_candidate & ack_objects)
        return admits, objects

    def _reach(self, snd: np.ndarray, rcv: np.ndarray):
        """Where a batch of links lands power, and where it listens.

        Both transmissions of every link in one CSR gather — the data
        packets (from ``snd``) then the ACKs (from ``rcv``).  Per stored
        entry: ``link`` (position in the batch), ``side`` (0 data, 1 ACK),
        the listening ``cell`` it lands on and the power ``vals``.  Per
        transmission, same order: the cell where its own link ``listens``
        for it (the data at the receiver, the ACK at the sender) and the
        signal power ``sig`` it arrives there with (absent is 0.0).
        """
        n = self._power.n
        owner, cell, vals = self._power.rows(np.concatenate((snd, rcv)))
        side = (owner >= snd.size).astype(np.intp)
        link = owner - snd.size * side
        cell += n * side
        listens = np.concatenate((rcv, snd + n))
        hit = cell == listens[owner]
        sig = np.zeros(listens.size)
        sig[owner[hit]] = vals[hit]
        return link, side, cell, vals, listens, sig

    def can_add_many(self, senders, receivers) -> np.ndarray:
        """Sparse arena: ``B`` candidates against every slot in one pass;
        ``out[b, j] == slot j can admit senders[b] -> receivers[b]``.

        Every candidate is tested against the arena as it stands, not
        against the other candidates: row ``b`` is
        ``can_add_all(senders[b], receivers[b])``, bit for bit.
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        return self._verdicts(snd, rcv, self._reach(snd, rcv))

    def _verdicts(self, snd: np.ndarray, rcv: np.ndarray, reach) -> np.ndarray:
        """:meth:`can_add_many` given the batch's :meth:`_reach`."""
        n = self.n_slots
        link, side, cell, vals, listens, sig = reach
        beta = self._beta
        noise = self._noise
        if self._budget is not None:
            noise = (noise + self._cell_budget[listens])[:, None]
        # The candidates' own data / ACK SINR under what already lands on
        # their listening cells ...
        own = ~(sig[:, None] < beta * (noise + self._landing[listens, :n]))
        ok = own[: snd.size] & own[snd.size :]
        ok &= (snd != rcv)[:, None]
        # ... no endpoint already sending or receiving in the slot ...
        ends = np.concatenate((listens, snd, rcv + self._power.n))
        ok &= self._listener[ends, :n].reshape(4, snd.size, n).max(axis=0) < 0
        # ... and every member listening where a candidate lands power
        # still above threshold with that power added, both sides at once
        # (flat: a 1-D nonzero plus one divmod beats the 2-D nonzero
        # several-fold).
        near = self._listener[cell, :n].ravel()
        flat = (near >= 0).nonzero()[0]
        if flat.size:
            rows = near[flat]
            at, slot = np.divmod(flat, n)
            noise = self._noise
            if self._budget is not None:
                noise = noise + self._cell_budget[cell[at]]
            interf = self._interf[side[at], rows] + vals[at]
            bad = self._sig[side[at], rows] < beta * (noise + interf)
            ok[link[at[bad]], slot[bad]] = False
        return ok

    def add_many(self, slots, senders, receivers) -> None:
        """Sparse arena: admit link ``i`` to ``slots[i]`` unconditionally,
        the whole batch in one pass — :meth:`add` of each in turn, bit for
        bit, with member rows appended in batch order.

        A slot index past the end opens that slot (and any before it).
        The batch must write each ``(cell, slot)`` of the tables once:
        links that share a slot need pairwise-disjoint CSR neighbourhoods
        (the stored columns of their endpoints' rows).  One link into
        several slots always qualifies; greedy packing admits a whole
        *wave* of links (:mod:`repro.scheduling.greedy_physical`).

        Raises ``ValueError``, before anything is written, if an endpoint
        already sends or receives in its slot.
        """
        slot = np.asarray(slots, dtype=np.intp)
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        self._fold(slot, snd, rcv, self._reach(snd, rcv))

    def _fold(self, slot: np.ndarray, snd: np.ndarray, rcv: np.ndarray, reach) -> None:
        """:meth:`add_many` given the batch's :meth:`_reach`."""
        top = max(int(slot.max(initial=-1)) + 1, self.n_slots)
        self._ensure_slot_capacity(top)
        link, side, cell, vals, listens, sig = reach
        ends = np.concatenate((listens, snd, rcv + self._power.n)).reshape(4, -1)
        busy = self._listener[ends, slot] >= 0
        if busy.any():
            i = int(busy.any(axis=0).argmax())
            raise ValueError(
                f"link {snd[i]}->{rcv[i]} shares a node with a member of slot {slot[i]}"
            )
        self._ensure_capacity(slot.size)
        self.n_slots = top
        rows = np.arange(self._m, self._m + slot.size)
        new = slice(self._m, self._m + slot.size)
        listens = listens.reshape(2, -1)
        at = slot[link]
        # The newcomers' own sums are what the tables hold at their cells;
        # members listening where they land power grow by it (one member
        # per cell and slot, so the targets are unique); the tables take
        # their rows.
        self._interf[:, new] = self._landing[listens, slot]
        heard = self._listener[cell, at]
        near = (heard >= 0).nonzero()[0]
        self._interf[side[near], heard[near]] += vals[near]
        self._landing[cell, at] += vals
        self._listener[listens, slot] = rows
        self._sig[:, new] = sig.reshape(2, -1)
        self._slot_id[new] = slot
        self._msnd[new] = snd
        self._mrcv[new] = rcv
        self._m = new.stop

    def first_fit(self, senders, receivers, need) -> tuple[np.ndarray, np.ndarray]:
        """Sparse arena: one greedy step for a whole batch — test it
        (:meth:`can_add_many`), give link ``b`` its first ``need[b] >= 1``
        admitting slots and, for what it is still short of, the fresh slots
        ``n_slots, n_slots + 1, ...`` (shared by the batch), and admit
        (:meth:`add_many`, whose precondition is the caller's to meet).

        Returns the memberships made, ``(link, slot)`` arrays.
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        need = np.asarray(need, dtype=np.intp)
        n = self.n_slots
        reach = self._reach(snd, rcv)
        ok = self._verdicts(snd, rcv, reach)
        ok &= ok.cumsum(axis=1) <= need[:, None]
        link, slot = ok.nonzero()
        short = need - np.bincount(link, minlength=snd.size)
        if short.any():
            fresh = np.repeat(np.arange(snd.size), short)
            link = np.concatenate((link, fresh))
            first = np.cumsum(short) - short
            slot = np.concatenate((slot, n + np.arange(fresh.size) - first[fresh]))
        if (need == 1).all():
            # One membership each: the gather serves again.
            slot = slot[np.argsort(link)]
            self._fold(slot, snd, rcv, reach)
            return np.arange(snd.size), slot
        self.add_many(slot, snd[link], rcv[link])
        return link, slot


def infeasible_slots(
    schedule: Schedule, model: PhysicalInterferenceModel
) -> list[int]:
    """Indices of the slots some member of which fails ``SINR >= β`` (data
    or ACK) under the exact model — the whole schedule in one SINR pass."""
    links = schedule.link_set
    sinrs = model.slot_sinrs(links.heads, links.tails, [s.links for s in schedule.slots])
    beta = model.radio.beta
    return [t for t, worst in enumerate(sinrs) if not (worst >= beta).all()]


def schedule_is_feasible(
    schedule: Schedule, model: PhysicalInterferenceModel
) -> bool:
    """Is every slot of the schedule feasible under the exact model?"""
    return not infeasible_slots(schedule, model)


def schedule_rates(
    schedule: Schedule, model: PhysicalInterferenceModel, table
) -> list[np.ndarray]:
    """Per-slot packets-per-slot arrays (member order) under a ``RateTable``.

    Stateless — no hysteresis; the epoch engines carry selection state in
    :class:`repro.traffic.epoch.RateAnnotator` instead.
    """
    links = schedule.link_set
    slots = [s.links for s in schedule.slots]
    return [table.grant(worst) for worst in model.slot_sinrs(links.heads, links.tails, slots)]
