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
  once.  Dense power is read through flat member columns, and every entry
  (``seed``, ``insert``, ``add``, ``can_add_all``, ``admit_sinrs``,
  ``handshake_verdicts``) is dense.  A ``SparsePowerMatrix`` is read
  through per-cell listener lists and a landing table by one entry,
  ``first_fit``, which ``greedy_physical`` feeds a *wave* of mutually
  unreachable links, one membership each (DESIGN.md §3).

``greedy_physical``'s first-fit packer (which its repair pass, and so the
sharded engine's reconciliation, reuses) and ``patch_schedule`` (dense
models only) build their slots in an arena; :func:`feasible_alone` is the
standalone screen (a slot of one) they apply before opening a fresh slot.
The arena's verdicts are pinned, bit for bit, to a scalar per-slot oracle
in the test suite, and its slots to the exact model by the schedule audits.
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


#: Initial slot-axis capacity of the sparse arena's landing table (doubles
#: on demand, like the member-row columns).
_SLOT_CAPACITY = 16
#: Initial width of the sparse arena's per-cell listener lists (grows on
#: demand to the busiest cell's listener count).
_LIST_WIDTH = 1


class SlotArena:
    """All slots of a schedule under construction, in flat numpy columns.

    Five columns (``slot_id``, member sender / receiver, data / ACK
    interference sums) are kept persistently, appended in admission order
    with capacity doubling, so a batched admission test does no
    Python-level per-member work.

    Two test paths, one verdict:

    * dense (every entry but :meth:`first_fit`) — the scalar per-slot test
      (each member's interference a left fold over the others in admission
      order) over all member rows at once: the per-slot sums are
      ``np.bincount`` segment sums, whose C loop accumulates weights in
      input order — the member order the scalar fold sums in, so the
      verdicts are bit-identical.  The test keeps what it gathered, and
      :meth:`add` of its candidate writes it;
    * sparse (auto-selected when the model's power is a
      :class:`~repro.phy.sparse.SparsePowerMatrix`; :meth:`first_fit` only)
      — tables over the ``2n`` *listening cells* (cell ``v`` hears data at
      node ``v``, cell ``n + v`` ACKs at node ``v``): a *landing* table
      ``(2n, slot_capacity)``, the slot axis doubling on demand, holding the
      running power landing on the cell from slot ``j``'s members,
      accumulated in admission order as each member's CSR rows are folded
      in; and a *listener list* ``(2n, width)`` per cell, the member rows
      listening there in admission order (``-1`` past the end; one per slot
      at most, so ``width`` — the busiest cell's count, grown on demand — is
      fan-in × demand, not the slot count).  A test then reads the
      candidate's two CSR rows and nothing else of the power matrix: its own
      interference sums sit in the landing table, node sharing is a list
      lookup, and the only members rechecked are those listening in the
      candidate's rows — O(degree × width) per candidate, no key search.
      Everything skipped is *exactly* ``0.0`` in the dense sums, and a
      member the candidate's rows do not reach receives no contribution, so
      — because every admitted member is feasible at admission time and
      additions only recheck — it cannot flip: the verdict is bit-identical
      to the dense one.  The tables are stored stacked, data side over ACK
      side, so one gather of a wave's CSR rows serves both.

    A fresh slot opens untested, and :meth:`seed`, :meth:`insert` and
    :meth:`add` insert unconditionally, so the member-feasibility invariant
    is the callers' to keep: greedy packing (its repair pass included)
    screens with :func:`feasible_alone`, and a patch seeds slots only with
    subsets of feasible cached slots (removals lower interference).

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
        # The last dense test's candidate and terms (:meth:`add` writes
        # them), and the slots admitted into since.
        self._tested = None
        self._admitted: set[int] = set()
        if self._use_sparse:
            n = model.power.n
            # Stacked storage, data side first: the kernel walks both sides
            # in one pass.  Member interference sums and each member's own
            # signal power (stored once at admission instead of re-read on
            # every test) ...
            self._interf = np.empty((2, cap), dtype=float)
            self._sig = np.empty((2, cap), dtype=float)
            self._columns = ["_slot_id", "_msnd", "_mrcv", "_interf", "_sig"]
            # ... and tables over *listening cells*: cell v hears data at
            # node v, cell n + v hears ACKs at node v.  The member rows
            # listening at a cell, in admission order ...
            self._lists = np.full((2 * n, _LIST_WIDTH), -1, dtype=np.int32)
            # ... and power landing on the cell from slot j's members.
            self._landing = np.zeros((2 * n, _SLOT_CAPACITY), dtype=float)
            self._cell_budget = None if self._budget is None else np.tile(self._budget, 2)
        else:
            # Gathers read ``_flat[row * n + col]``, several-fold faster.
            self._flat = np.ascontiguousarray(model.power).reshape(-1)
            self._di = np.empty(cap, dtype=float)
            self._ai = np.empty(cap, dtype=float)
            self._columns = ["_slot_id", "_msnd", "_mrcv", "_di", "_ai"]

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
        width = self._landing.shape[1]
        if n_slots <= width:
            return
        grown = width
        while grown < n_slots:
            grown *= 2
        landing = np.zeros((self._landing.shape[0], grown))
        landing[:, :width] = self._landing
        self._landing = landing

    def seed(self, slot_of, senders, receivers) -> None:
        """Dense: append whole slots, untested: link ``senders[i] ->
        receivers[i]`` joins slot ``slot_of[i]``, which runs ``n_slots,
        n_slots + 1, ...`` without gaps, each slot's members in admission
        order.

        Bit for bit a slot opened with its first member alone and
        :meth:`add` of the rest, in turn.  There member ``p``'s sums are the
        left fold ``0.0 + x_0 + x_1 + ...`` of the other members' powers in
        admission order: the ``bincount`` at its admission, then one ``+=``
        per later member.  That fold is one ``(slots, K, K)`` gather
        with the diagonal and the padding set to an exact ``0.0``, summed
        column by column — ``x + 0.0 == x`` for the non-negative partial
        sums.
        """
        self._tested = None
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

    def insert(self, slots, senders, receivers) -> None:
        """Dense: open one slot per link ``senders[i] -> receivers[i]``,
        alone and untested, at ``slots`` — ascending positions in the
        numbering after the insertion.  The existing slots fill the other
        positions in their order, their members unchanged; appending (every
        position past them) renumbers nothing, and is :meth:`seed` of
        singletons."""
        self._tested = None
        at = np.asarray(slots, dtype=np.intp)
        if at[0] < self.n_slots:
            kept = np.delete(np.arange(self.n_slots + at.size), at)
            self._slot_id[: self._m] = kept[self._slot_id[: self._m]]
        self.n_slots += at.size
        self._ensure_capacity(at.size)
        self._append(at, senders, receivers, 0.0, 0.0)

    def _append(self, slots: list[int], senders, receivers, di, ai) -> None:
        """Write one member row per entry of ``slots`` (capacity ensured)."""
        new = slice(self._m, self._m + len(slots))
        self._slot_id[new] = slots
        self._msnd[new] = senders
        self._mrcv[new] = receivers
        self._di[new] = di
        self._ai[new] = ai
        self._m = new.stop

    def add(self, slot, sender, receiver) -> None:
        """Dense: admit a link to a slot, or links to several distinct slots
        at once, unconditionally (caller pre-approved): ``sender`` /
        ``receiver`` are one link for every slot, or one per slot of
        ``slot`` (the lanes of a lockstep pack).

        The scalar per-slot fold, bit for bit: existing members' sums grow
        element-wise by the newcomer's contribution, and the newcomer's own
        sums accumulate over members in admission order.  The add writes
        what the test before it gathered (:meth:`can_add_all`,
        :meth:`handshake_verdicts` or :meth:`admit_sinrs` of this
        candidate): the members' cross terms, and the newcomer's per-slot
        sums (a ``bincount`` keyed by slot — C-loop sequential per bin, the
        order the scalar loop adds in).

        Raises ``ValueError``, before anything is written, if the candidate
        is not the one last tested, or a target slot was admitted into,
        seeded or renumbered since (admitting the candidate into its other
        tested slots is not a change).
        """
        into = np.atleast_1d(slot)
        if self._tested is None:
            raise ValueError("a dense add needs a test of its candidate first")
        cs, cr, sid, seg, new_di, new_ai = self._tested
        if isinstance(cs, np.ndarray):  # one candidate per slot
            cs, cr = cs[into], cr[into]
        if not np.asarray((sender == cs) & (receiver == cr)).all():
            raise ValueError("add's candidate is not the one last tested")
        slots = into.tolist()
        if not self._admitted.isdisjoint(slots):
            raise ValueError("a target slot changed since the test")
        self._admitted.update(slots)
        self._ensure_capacity(into.size)
        target = np.zeros(new_di.size, dtype=bool)
        target[into] = True
        hit = target[sid]
        di, ai = self._di[: sid.size], self._ai[: sid.size]
        np.add(di, seg[2], out=di, where=hit)
        np.add(ai, seg[3], out=ai, where=hit)
        self._append(into, sender, receiver, new_di[into], new_ai[into])

    def can_add_all(self, sender, receiver) -> np.ndarray:
        """Dense: one candidate against every slot: ``out[j] == slot j can
        admit``, bit-identical to the scalar per-slot test run slot by slot.
        ``sender`` / ``receiver`` may also give one candidate per slot,
        slots with different candidates on node-disjoint blocks of the
        power matrix (the lanes of a lockstep pack).
        """
        return self._dense_terms(sender, receiver)[0]

    def admit_sinrs(self, sender: int, receiver: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense: :meth:`can_add_all` and the candidate's ``min(data, ACK)``
        SINR in every slot: where it admits, bit for bit the last entry of
        :func:`what_if_sinrs` over ``members + [candidate]``, the test's sum
        written as the kernel writes it (own power added, then taken out)."""
        n = self.n_slots
        if n == 0 or sender == receiver:
            return np.zeros(n, dtype=bool), np.zeros(n)
        ok, *_, own = self._dense_terms(sender, receiver)
        (sd, sa), (zd, za), (idata, iack) = own
        return ok, np.minimum(sd / (zd + ((idata + sd) - sd)), sa / (za + ((iack + sa) - sa)))

    def _dense_terms(self, sender, receiver):
        """The dense admission test of one candidate against every slot —
        or of candidate ``sender[j] -> receiver[j]`` against slot ``j``,
        where slots with different candidates lie on node-disjoint blocks
        of the power matrix (the lanes of a lockstep pack): per slot the
        verdict, then per member ``sid`` (its slot), its candidate's
        endpoints, ``data_bad`` / ``ack_bad`` (its data / ACK below
        threshold with its candidate on the air), and per slot
        ``cand_data`` (the candidate's own data clears it) and ``own`` (its
        data / ACK signals, noises and interference).

        Raises ``ValueError`` on a sparse arena, whose one entry is
        :meth:`first_fit`."""
        if self._use_sparse:
            raise ValueError("the arena's dense tests need a dense power matrix")
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
        nodes = self._power.shape[0]
        pair = [sender * nodes + receiver, receiver * nodes + sender]
        if isinstance(sender, np.ndarray):  # one candidate per slot
            cs, cr = sender[sid], receiver[sid]
            pair = np.concatenate(pair)
        else:
            cs, cr = sender, receiver
        ends = np.zeros(nodes, dtype=bool)
        ends[sender] = ends[receiver] = True
        shared = ends[msnd] | ends[mrcv]

        # All six power reads — the candidate pair plus the four member
        # cross terms — in one fused gather (a pure gather: grouping the
        # lookups differently can never change a value, so the verdicts
        # below stay bit-identical to the unfused formula).
        k = sid.size
        srow, rrow = msnd * nodes, mrcv * nodes
        cross = (srow + cr, rrow + cs, mrcv + cs * nodes, msnd + cr * nodes)
        vals = self._flat.take(np.concatenate((pair, *cross, srow + mrcv, rrow + msnd)))
        c = len(pair) // 2
        own_data, own_ack = (vals[0], vals[1]) if c == 1 else (vals[:c], vals[c : 2 * c])
        seg = vals[2 * c :].reshape(6, k)  # the member terms, one row each

        new_data_interf = np.bincount(sid, weights=seg[0], minlength=n)
        new_ack_interf = np.bincount(sid, weights=seg[1], minlength=n)
        cand_data = ~(own_data < beta * (data_noise + new_data_interf))
        cand_ack = ~(own_ack < beta * (ack_noise + new_ack_interf))

        member_data_noise = noise if budget is None else noise + budget[mrcv]
        member_ack_noise = noise if budget is None else noise + budget[msnd]
        data_bad = seg[4] < beta * (member_data_noise + (di + seg[2]))
        ack_bad = seg[5] < beta * (member_ack_noise + (ai + seg[3]))
        blocked = np.zeros(n, dtype=bool)
        blocked[sid[shared | data_bad | ack_bad]] = True
        ok = cand_data & cand_ack & ~blocked
        # What an add of this candidate writes: its members' cross terms
        # and its own per-slot sums, the slots as tested.
        self._tested = sender, receiver, sid, seg, new_data_interf, new_ack_interf
        self._admitted = set()
        own = (own_data, own_ack), (data_noise, ack_noise), (new_data_interf, new_ack_interf)
        return ok, sid, (cs, cr), data_bad, ack_bad, cand_data, own

    def handshake_verdicts(self, sender, receiver) -> tuple[np.ndarray, np.ndarray]:
        """Dense arena: :meth:`can_add_all` plus, per slot, whether a
        member would *object* — fail its own two-way handshake with the
        candidate on the air, as FDD's construction step runs it (every
        member and the candidate send data; only receivers that decoded
        answer with an ACK; a node that transmits is deaf).  ``sender`` /
        ``receiver`` are one candidate, or one per slot.

        A member objects iff its receiver is the candidate's sender (deaf),
        or some member's data fails, or the candidate's data decodes and
        then some member's ACK fails.  Otherwise only the members' own ACKs
        are on the air, which the slot clears as admitted.  The candidate's
        data cannot decode at a receiver that sends; a receiver shared with
        a member is no special case (both data terms are real).  Slots
        that admit have no objection.
        """
        n = self.n_slots
        admits, sid, (cs, cr), data_bad, ack_bad, cand_data, _ = self._dense_terms(
            sender, receiver
        )

        def per_slot(flags: np.ndarray) -> np.ndarray:
            return np.bincount(sid, weights=flags, minlength=n) > 0

        # A deaf member or a failing data packet objects either way.
        deaf_or_data = per_slot((self._mrcv[: self._m] == cs) | data_bad)
        ack_objects = per_slot(ack_bad)
        deaf_candidate = per_slot(self._msnd[: self._m] == cr)
        objects = deaf_or_data | (cand_data & ~deaf_candidate & ack_objects)
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

    def _listeners(self, snd: np.ndarray, rcv: np.ndarray, reach):
        """Every member listening where the wave lands power or at one of
        its endpoints, read from the lists (flat: one 1-D nonzero): per
        member, ``at`` — an entry of the :meth:`_reach`, or ``E + k·B + i``
        past its ``E`` entries for end cell ``k`` of link ``i`` (its
        receiver's data, sender's ACK, sender's data, receiver's ACK cell)
        — its row and its slot."""
        cells = np.concatenate((reach[2], reach[4], snd, rcv + self._power.n))
        heard = self._lists.take(cells, axis=0).ravel()
        flat = (heard >= 0).nonzero()[0]
        rows = heard[flat]
        return flat // self._lists.shape[1], rows, self._slot_id[rows]

    def _verdicts(self, snd: np.ndarray, rcv: np.ndarray, reach):
        """The wave against every slot given its :meth:`_reach`:
        ``ok[b, j] == slot j can admit senders[b] -> receivers[b]``, each
        link tested against the arena as it stands, not against its
        wave-mates.  With it, the members :meth:`_listeners` found where
        the wave lands power, which :meth:`_fold` of the wave writes."""
        link, side, cell, vals, listens, sig = reach
        beta = self._beta
        noise = self._noise
        if self._budget is not None:
            noise = (noise + self._cell_budget[listens])[:, None]
        # The candidates' own data / ACK SINR under what already lands on
        # their listening cells ...
        landing = self._landing.take(listens, axis=0)[:, : self.n_slots]
        own = ~(sig[:, None] < beta * (noise + landing))
        ok = own[: snd.size] & own[snd.size :]
        ok &= (snd != rcv)[:, None]
        # ... no endpoint already sending or receiving in the slot ...
        at, rows, slot = self._listeners(snd, rcv, reach)
        end = at >= link.size
        ok[(at[end] - link.size) % snd.size, slot[end]] = False
        # ... and every member listening where a candidate lands power
        # still above threshold with that power added, both sides at once.
        near = ~end
        at, rows, slot = at[near], rows[near], slot[near]
        noise = self._noise
        if self._budget is not None:
            noise = noise + self._cell_budget[cell[at]]
        interf = self._interf[side[at], rows] + vals[at]
        bad = self._sig[side[at], rows] < beta * (noise + interf)
        ok[link[at[bad]], slot[bad]] = False
        return ok, (at, rows, slot)

    def _fold(self, slot: np.ndarray, snd: np.ndarray, rcv: np.ndarray, reach, near) -> None:
        """Admit link ``i`` of the wave to ``slot[i]`` (``n_slots`` opens a
        slot), given the wave's :meth:`_reach` and the members its
        :meth:`_verdicts` found where the wave lands power.  The test vetoed
        every slot where an endpoint is busy, so only those members can be
        in a target slot, and each one's sum grows by what lands on it."""
        link, side, cell, vals, listens, sig = reach
        b = snd.size
        at, rows, heard_in = near
        target = slot[link]
        hit = heard_in == target[at]
        at, rows = at[hit], rows[hit]
        top = max(int(slot.max(initial=-1)) + 1, self.n_slots)
        self._ensure_slot_capacity(top)
        self._ensure_capacity(b)
        self.n_slots = top
        new = slice(self._m, self._m + b)
        # The newcomers' own sums are what lands at their cells; members
        # listening where they land power grow by it (one member per cell
        # and slot, so the targets are unique); the lists take their rows.
        width = self._landing.shape[1]
        landing = self._landing.reshape(-1)
        self._interf[:, new] = landing.take(listens.reshape(2, -1) * width + slot)
        self._interf[side[at], rows] += vals[at]
        landing[cell * width + target] += vals
        self._listen(listens, np.arange(2 * b) % b + new.start)
        self._sig[:, new] = sig.reshape(2, -1)
        self._slot_id[new] = slot
        self._msnd[new] = snd
        self._mrcv[new] = rcv
        self._m = new.stop

    def _listen(self, cells: np.ndarray, rows: np.ndarray) -> None:
        """Append member ``rows[i]`` to the list of ``cells[i]`` (distinct:
        wave-mates never share a cell).  A list at full width widens to
        fit."""
        pos = (self._lists.take(cells, axis=0) >= 0).sum(axis=1)
        width = self._lists.shape[1]
        need = int(pos.max(initial=-1)) + 1
        if need > width:
            lists = np.full((self._lists.shape[0], need), -1, dtype=np.int32)
            lists[:, :width] = self._lists
            self._lists, width = lists, need
        self._lists.reshape(-1)[cells * width + pos] = rows

    def first_fit(self, senders, receivers) -> np.ndarray:
        """Sparse arena: one greedy step for a *wave* of links, each wanting
        one membership — test it, give each link its first admitting slot,
        or else the fresh slot ``n_slots`` (shared by the wave), and admit.

        The links' CSR neighbourhoods must be pairwise disjoint
        (:mod:`repro.scheduling.greedy_physical`).  Returns each link's slot.
        """
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        reach = self._reach(snd, rcv)
        ok, hits = self._verdicts(snd, rcv, reach)
        # A column of True past the open slots: argmax is the first
        # admitting slot, or the fresh one.
        slot = np.concatenate((ok, np.ones((snd.size, 1), dtype=bool)), axis=1).argmax(axis=1)
        self._fold(slot, snd, rcv, reach, hits)
        return slot


def infeasible_slots(
    schedule: Schedule, model: PhysicalInterferenceModel
) -> list[int]:
    """Indices of the slots some member of which fails ``SINR >= β`` (data
    or ACK) under the exact model — the whole schedule in one SINR pass."""
    links = schedule.link_set
    sinrs = model.slot_sinrs(links.heads, links.tails, [s.links for s in schedule.slots])
    beta = model.radio.beta
    return [t for t, worst in enumerate(sinrs) if not (worst >= beta).all()]
