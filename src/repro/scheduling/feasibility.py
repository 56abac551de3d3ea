"""The slot-admission test, its scalar reference and its batched form.

The paper has one admission test (Section II): may link e join this slot —
does every member, and the newcomer, keep data and ACK ``SINR >= β``?
Re-deriving it from scratch costs O(k²) in the slot's members; the
implementations here keep per-member interference sums instead, so a test
is O(k) and an accepted addition O(k).  Three remain, all bit-identical:

* :class:`SlotState` — one slot, one candidate at a time, plain Python
  loops.  The reference the arena is differenced against, and what
  ``optimal`` (re-seeds a slot per branch-and-bound node) and
  ``greedy_rate`` (one slot, one candidate at a time) run on.
* :class:`SlotArena`, dense — one candidate against *every* slot of a
  schedule in one numpy pass over flat member columns.
* :class:`SlotArena`, sparse — the same verdicts from per-node slot tables,
  selected when the model's power is a ``SparsePowerMatrix``.  Reading
  dense power through these tables was measured (DESIGN.md §3): −32 % on
  ``sessions_patch_8x8``'s ``decodable_tx_per_s``, so both branches stay.

``greedy_physical``, ``patch_schedule`` and ``reconcile_round`` build their
slots in an arena; :func:`feasible_alone` is the standalone screen (a slot
of one) they all apply before opening a fresh slot.  The arithmetic mirrors
:mod:`repro.phy.interference` exactly — property tests assert the two
always agree — without rebuilding an incidence matrix per test.
"""

from __future__ import annotations

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.schedule import Schedule


class SlotState:
    """Mutable feasibility state of one slot under construction.

    Tracks, for every member link ``k`` (sender ``s_k``, receiver ``r_k``):

    * ``data_interf[k]`` — total interference power at ``r_k`` from the
      *other* members' data transmissions;
    * ``ack_interf[k]`` — total interference power at ``s_k`` from the
      other members' ACK transmissions.

    All powers in mW; thresholds from the bound interference model.
    """

    def __init__(self, model: PhysicalInterferenceModel):
        self._power = model.power
        self._noise = model.radio.noise_mw
        self._beta = model.radio.beta
        # Per-node far-field noise budget (sharded guard margins); None for
        # the exact monolithic model.  Receiving nodes pay their budget on
        # top of the thermal noise in every check below.
        self._budget = model.budget_mw
        self.senders: list[int] = []
        self.receivers: list[int] = []
        self._data_interf: list[float] = []
        self._ack_interf: list[float] = []

    def __len__(self) -> int:
        return len(self.senders)

    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """(senders, receivers) arrays of the current members."""
        return (
            np.asarray(self.senders, dtype=np.intp),
            np.asarray(self.receivers, dtype=np.intp),
        )

    def can_add(self, sender: int, receiver: int) -> bool:
        """Would the slot stay feasible if ``sender -> receiver`` joined?

        Checks the new link's own data and ACK SINR against the members'
        interference, and every member's updated SINR against the new link's
        contribution.  The slot state is not modified.

        Links sharing a node with a member are rejected outright: a
        half-duplex node cannot transmit and receive in the same sub-slot
        (this mirrors the SINR-level masking in
        :func:`repro.phy.sinr.sinr_for_links`).
        """
        p = self._power
        noise = self._noise
        beta = self._beta
        budget = self._budget

        if sender == receiver:
            return False
        for s_k, r_k in zip(self.senders, self.receivers):
            if sender in (s_k, r_k) or receiver in (s_k, r_k):
                return False

        new_data_interf = 0.0
        new_ack_interf = 0.0
        for s_k, r_k in zip(self.senders, self.receivers):
            new_data_interf += p[s_k, receiver]
            new_ack_interf += p[r_k, sender]
        data_noise = noise if budget is None else noise + budget[receiver]
        ack_noise = noise if budget is None else noise + budget[sender]
        if p[sender, receiver] < beta * (data_noise + new_data_interf):
            return False
        if p[receiver, sender] < beta * (ack_noise + new_ack_interf):
            return False

        for k, (s_k, r_k) in enumerate(zip(self.senders, self.receivers)):
            data_interf = self._data_interf[k] + p[sender, r_k]
            member_data_noise = noise if budget is None else noise + budget[r_k]
            if p[s_k, r_k] < beta * (member_data_noise + data_interf):
                return False
            ack_interf = self._ack_interf[k] + p[receiver, s_k]
            member_ack_noise = noise if budget is None else noise + budget[s_k]
            if p[r_k, s_k] < beta * (member_ack_noise + ack_interf):
                return False
        return True

    def add(self, sender: int, receiver: int) -> None:
        """Add the link unconditionally, updating interference sums."""
        p = self._power
        new_data_interf = 0.0
        new_ack_interf = 0.0
        for k, (s_k, r_k) in enumerate(zip(self.senders, self.receivers)):
            self._data_interf[k] += p[sender, r_k]
            self._ack_interf[k] += p[receiver, s_k]
            new_data_interf += p[s_k, receiver]
            new_ack_interf += p[r_k, sender]
        self.senders.append(int(sender))
        self.receivers.append(int(receiver))
        self._data_interf.append(new_data_interf)
        self._ack_interf.append(new_ack_interf)

    def try_add(self, sender: int, receiver: int) -> bool:
        """Add the link iff the slot stays feasible; report success."""
        if self.can_add(sender, receiver):
            self.add(sender, receiver)
            return True
        return False


def feasible_alone(
    model: PhysicalInterferenceModel, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """One bool per link: does ``senders[k] -> receivers[k]`` decode alone?

    The communication-graph membership test of Section II — data packet and
    ACK both clear ``β`` against noise (plus the model's budget at each
    receiving node) with nobody else on the air — and the verdict
    :meth:`SlotState.can_add` gives on an empty slot, bit for bit.  A link
    that fails it fails every admission test, so it can only ever be
    served by a slot of its own.
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


#: Initial slot-axis capacity of the sparse arena's per-node slot tables
#: (doubles on demand, like the member-row columns).
_SLOT_CAPACITY = 16


def _stored(cols: np.ndarray, vals: np.ndarray, col: int):
    """``P[i, col]`` read off CSR row ``i`` = ``(cols, vals)``; absent is 0.0."""
    k = cols.searchsorted(col)
    if k < cols.size and cols[k] == col:
        return vals[k]
    return 0.0


class SlotArena:
    """All slots of a schedule under construction, in flat numpy columns.

    Five columns (``slot_id``, member sender / receiver, data / ACK
    interference sums) are kept persistently, appended in admission order
    with capacity doubling, so a batched admission test does no
    Python-level per-member work.

    Two test paths, one verdict:

    * dense — :meth:`SlotState.can_add` over all member rows at once: the
      per-slot interference sums are ``np.bincount`` segment sums, whose C
      loop accumulates weights in input order — the member order the
      scalar loop sums in, so the verdicts are bit-identical;
    * sparse (auto-selected when the model's power is a
      :class:`~repro.phy.sparse.SparsePowerMatrix`) — per-node *slot
      tables* of shape ``(n, slot_capacity)``, the slot axis doubling on
      demand.  For node ``v`` and slot ``j`` they hold the member row that
      receives / transmits at ``v`` (``-1`` if none) and the running data /
      ACK power landing on ``v`` from slot ``j``'s members, accumulated in
      admission order as each member's CSR row is scattered in.  A test
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
      :meth:`open_slot` and :meth:`add` insert unconditionally: greedy
      packing and fresh slots screen with :func:`feasible_alone`, a patch
      seeds slots only with subsets of feasible cached slots (removals
      lower interference), and ``reconcile_round`` masks the verdict of
      the one kind of slot that breaks it (a link infeasible even alone).
      The tables assume one member per node per slot, which :meth:`add`
      enforces.

    All powers in mW; thresholds from the bound interference model, exactly
    as :class:`SlotState`.  ``tests/property/test_scheduling_properties.py``
    pins sparse-arena ≡ dense-arena ≡ :class:`SlotState` verdicts step by
    step over random admission sequences.
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
        self._di = np.empty(cap, dtype=float)
        self._ai = np.empty(cap, dtype=float)
        self._columns = ["_slot_id", "_msnd", "_mrcv", "_di", "_ai"]
        self._m = 0
        self.n_slots = 0
        self._slot_rows: list[list[int]] = []
        if self._use_sparse:
            # Each member's own data / ACK signal power, stored once at
            # admission instead of re-read on every test.
            self._sig_d = np.empty(cap, dtype=float)
            self._sig_a = np.empty(cap, dtype=float)
            self._columns += ["_sig_d", "_sig_a"]
            shape = (model.power.n, _SLOT_CAPACITY)
            # Slot tables: member row receiving / transmitting at [v, j] ...
            self._rx_row = np.full(shape, -1, dtype=np.int32)
            self._tx_row = np.full(shape, -1, dtype=np.int32)
            # ... and data / ACK power landing on v from slot j's members.
            self._data_on = np.zeros(shape, dtype=float)
            self._ack_on = np.zeros(shape, dtype=float)

    def __len__(self) -> int:
        return self.n_slots

    @property
    def n_members(self) -> int:
        return self._m

    def members(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """(senders, receivers) of one slot, in admission order."""
        rows = np.asarray(self._slot_rows[slot], dtype=np.intp)
        return self._msnd[rows], self._mrcv[rows]

    def _ensure_capacity(self) -> None:
        if self._m < self._slot_id.size:
            return
        cap = self._slot_id.size * 2
        for name in self._columns:
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._m] = old[: self._m]
            setattr(self, name, new)

    def _ensure_slot_capacity(self) -> None:
        width = self._rx_row.shape[1]
        if self.n_slots < width:
            return
        for name, empty in (
            ("_rx_row", -1),
            ("_tx_row", -1),
            ("_data_on", 0.0),
            ("_ack_on", 0.0),
        ):
            old = getattr(self, name)
            new = np.full((old.shape[0], 2 * width), empty, dtype=old.dtype)
            new[:, :width] = old
            setattr(self, name, new)

    def open_slot(self, sender: int, receiver: int) -> int:
        """Append a fresh slot seeded with one member; return its index.

        The insert is unconditional — callers screen the link with
        :func:`feasible_alone` first, which is what keeps the
        member-feasibility invariant the sparse path relies on.
        """
        if self._use_sparse:
            self._ensure_slot_capacity()
        j = self.n_slots
        self.n_slots += 1
        self._slot_rows.append([])
        self.add(j, sender, receiver)
        return j

    def add(self, slot: int, sender: int, receiver: int) -> None:
        """Admit the link to a slot unconditionally (caller pre-approved).

        Mirrors :meth:`SlotState.add` bit-for-bit: existing members' sums
        grow element-wise by the newcomer's contribution, and the
        newcomer's own sums accumulate over members in admission order
        (single-bucket ``bincount`` — C-loop sequential, the same order the
        scalar loop adds in; on the sparse path the slot tables have been
        running that very sum since the slot opened).

        Raises ``ValueError`` on the sparse path if an endpoint already
        sends or receives in the slot: the slot tables hold one member per
        node per slot.
        """
        p = self._power
        rows = self._slot_rows[slot]
        self._ensure_capacity()
        row = self._m
        if self._use_sparse:
            new_di, new_ai = self._scatter(slot, row, sender, receiver)
        elif rows:
            r = np.asarray(rows, dtype=np.intp)
            ms = self._msnd[r]
            mr = self._mrcv[r]
            # One fused gather for all four member/newcomer power reads —
            # a pure gather, so splitting it differently never changes a
            # value, and the bincount sums below keep their exact order.
            k = r.size
            grows = np.empty(4 * k, dtype=np.intp)
            gcols = np.empty(4 * k, dtype=np.intp)
            grows[:k] = sender
            gcols[:k] = mr
            grows[k : 2 * k] = receiver
            gcols[k : 2 * k] = ms
            grows[2 * k : 3 * k] = ms
            gcols[2 * k : 3 * k] = receiver
            grows[3 * k :] = mr
            gcols[3 * k :] = sender
            vals = p[grows, gcols]
            self._di[r] += vals[:k]
            self._ai[r] += vals[k : 2 * k]
            zero = np.zeros(k, dtype=np.intp)
            new_di = float(
                np.bincount(zero, weights=vals[2 * k : 3 * k], minlength=1)[0]
            )
            new_ai = float(np.bincount(zero, weights=vals[3 * k :], minlength=1)[0])
        else:
            new_di = 0.0
            new_ai = 0.0
        self._slot_id[row] = slot
        self._msnd[row] = sender
        self._mrcv[row] = receiver
        self._di[row] = new_di
        self._ai[row] = new_ai
        self._m += 1
        rows.append(row)

    def _scatter(
        self, slot: int, row: int, sender: int, receiver: int
    ) -> tuple[float, float]:
        """Sparse half of :meth:`add`: fold the newcomer (member ``row``)
        into the slot tables in O(degree) and return its own data / ACK
        interference sums, which the tables already hold."""
        rx = self._rx_row
        tx = self._tx_row
        if max(rx[sender, slot], tx[sender, slot]) >= 0 or (
            max(rx[receiver, slot], tx[receiver, slot]) >= 0
        ):
            raise ValueError(
                f"link {sender}->{receiver} shares a node with a member of slot {slot}"
            )
        cs, vs = self._power.row(sender)
        cr, vr = self._power.row(receiver)
        new_di = float(self._data_on[receiver, slot])
        new_ai = float(self._ack_on[sender, slot])
        # Members whose receiver hears the newcomer's data / whose sender
        # hears its ACK: at most one row per node, so the rows are unique.
        hit = rx[cs, slot]
        near = hit >= 0
        self._di[hit[near]] += vs[near]
        hit = tx[cr, slot]
        near = hit >= 0
        self._ai[hit[near]] += vr[near]
        self._data_on[cs, slot] += vs
        self._ack_on[cr, slot] += vr
        rx[receiver, slot] = row
        tx[sender, slot] = row
        self._sig_d[row] = _stored(cs, vs, receiver)
        self._sig_a[row] = _stored(cr, vr, sender)
        return new_di, new_ai

    def _veto_members(
        self,
        ok: np.ndarray,
        table: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        sig: np.ndarray,
        interf: np.ndarray,
    ) -> None:
        """Clear ``ok[j]`` where a slot-``j`` member listening at one of
        ``cols`` (per ``table``) would drop below threshold with ``vals``
        added to its interference — the dense path's member check, on the
        rows the candidate's CSR row reaches."""
        # Whole table rows (slots not opened yet hold no member), flat: a
        # 1-D nonzero plus one divmod beats the 2-D nonzero several-fold.
        near = table.take(cols, axis=0).ravel()
        flat = (near >= 0).nonzero()[0]
        if flat.size == 0:
            return
        rows = near[flat]
        at, slot = np.divmod(flat, table.shape[1])
        noise = self._noise
        if self._budget is not None:
            noise = noise + self._budget[cols[at]]
        bad = sig[rows] < self._beta * (noise + (interf[rows] + vals[at]))
        ok[slot[bad]] = False

    def can_add_all(self, sender: int, receiver: int) -> np.ndarray:
        """One candidate against every slot: ``out[j] == slot j can admit``.

        Bit-identical to ``[state.can_add(sender, receiver) for state in
        states]`` over equivalent :class:`SlotState` objects, on either path.
        """
        n = self.n_slots
        out = np.zeros(n, dtype=bool)
        if n == 0 or sender == receiver:
            return out
        p = self._power
        noise = self._noise
        beta = self._beta
        budget = self._budget
        data_noise = noise if budget is None else noise + budget[receiver]
        ack_noise = noise if budget is None else noise + budget[sender]

        if self._use_sparse:
            cs, vs = p.row(sender)
            cr, vr = p.row(receiver)
            rx = self._rx_row
            tx = self._tx_row
            new_data_interf = self._data_on[receiver, :n]
            new_ack_interf = self._ack_on[sender, :n]
            ok = ~(_stored(cs, vs, receiver) < beta * (data_noise + new_data_interf))
            ok &= ~(_stored(cr, vr, sender) < beta * (ack_noise + new_ack_interf))
            busy = np.maximum(rx[sender, :n], tx[sender, :n])
            np.maximum(busy, rx[receiver, :n], out=busy)
            np.maximum(busy, tx[receiver, :n], out=busy)
            ok &= busy < 0
            self._veto_members(ok, rx, cs, vs, self._sig_d, self._di)
            self._veto_members(ok, tx, cr, vr, self._sig_a, self._ai)
            return ok

        m = self._m
        sid = self._slot_id[:m]
        msnd = self._msnd[:m]
        mrcv = self._mrcv[:m]
        di = self._di[:m]
        ai = self._ai[:m]

        shared = (msnd == sender) | (msnd == receiver) | (mrcv == sender) | (mrcv == receiver)
        shared_per_slot = np.bincount(sid, weights=shared, minlength=n) > 0

        # All six power reads — the candidate pair plus the four member
        # cross terms — in one fused gather (a pure gather: grouping the
        # lookups differently can never change a value, so the verdicts
        # below stay bit-identical to the unfused formula).
        k = sid.size
        grows = np.empty(6 * k + 2, dtype=np.intp)
        gcols = np.empty(6 * k + 2, dtype=np.intp)
        grows[0] = sender
        gcols[0] = receiver
        grows[1] = receiver
        gcols[1] = sender
        seg = [slice(i * k + 2, (i + 1) * k + 2) for i in range(6)]
        grows[seg[0]] = msnd
        gcols[seg[0]] = receiver
        grows[seg[1]] = mrcv
        gcols[seg[1]] = sender
        grows[seg[2]] = sender
        gcols[seg[2]] = mrcv
        grows[seg[3]] = receiver
        gcols[seg[3]] = msnd
        grows[seg[4]] = msnd
        gcols[seg[4]] = mrcv
        grows[seg[5]] = mrcv
        gcols[seg[5]] = msnd
        vals = p[grows, gcols]

        new_data_interf = np.bincount(sid, weights=vals[seg[0]], minlength=n)
        new_ack_interf = np.bincount(sid, weights=vals[seg[1]], minlength=n)
        cand_ok = ~(vals[0] < beta * (data_noise + new_data_interf))
        cand_ok &= ~(vals[1] < beta * (ack_noise + new_ack_interf))

        member_data_noise = noise if budget is None else noise + budget[mrcv]
        member_ack_noise = noise if budget is None else noise + budget[msnd]
        bad = vals[seg[4]] < beta * (member_data_noise + (di + vals[seg[2]]))
        bad |= vals[seg[5]] < beta * (member_ack_noise + (ai + vals[seg[3]]))
        member_bad = np.bincount(sid, weights=bad, minlength=n) > 0

        return cand_ok & ~shared_per_slot & ~member_bad


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
    return model.slot_rates(
        links.heads, links.tails, [s.links for s in schedule.slots], table
    )
