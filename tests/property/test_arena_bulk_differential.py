"""The slot arena's bulk entries against the one-member calls they replace.

``SlotArena.seed`` appends whole slots in one pass and ``SlotArena.add``
admits one link into several slots at once.  Both are execution orders, not
new arithmetic: the arena they leave must be the one ``open_slot`` + ``add``
of every member in turn leaves — every dense column (slot id, sender,
receiver, data / ACK interference sums) to the bit, every slot's member
list, and every later admission verdict.  On a sparse power matrix the
arena's one entry, ``first_fit``, admits a whole wave of links in one pass,
and must agree with the dense arena and the scalar ``SlotState`` oracle
taking the wave's links one at a time.

The dense fold is only order-sensitive once a sum has eight terms (numpy
sums shorter runs sequentially whatever the method), so slots here hold up
to eight members and the scalar oracle is checked after every step.
Folding the newcomer's own sums in ``add`` pairwise (``ndarray.sum`` per
slot) instead of by ``bincount`` fails
``test_add_into_several_slots_equals_add_per_slot``; reducing the gather of
``seed`` with ``sum(axis=2)`` instead of column by column fails both dense
tests.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import sparse_gain_model
from repro.scheduling import feasibility
from repro.scheduling.feasibility import SlotArena
from repro.scheduling.greedy_physical import _waves
from tests.conftest import (
    SlotState,
    interference_sums,
    open_slot,
    slot_members,
    dense_twin,
    slot_rows,
    sparse_verdicts,
)
from tests.property.test_wave_pack_differential import packing_instance

COLUMNS = ("_slot_id", "_msnd", "_mrcv", "_di", "_ai")


@st.composite
def bulk_instance(draw):
    """A random deployment with heterogeneous transmit power, one sparse and
    one equivalent dense model (optionally budgeted), and slots of 1-8
    node-disjoint links each, in admission order."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=16, max_value=40))
    cutoff = draw(st.sampled_from([None, 150.0, math.inf]))  # None: CS radius
    budget_kind = draw(st.sampled_from(["none", "floor", "extra"]))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    radio = RadioConfig()
    positions = rng.uniform(0, np.sqrt(n) * 45.0, size=(n, 2))
    tx = 10 ** (12.0 / 10.0) * rng.uniform(0.5, 1.5, size=n)
    sparse = sparse_gain_model(
        positions,
        tx,
        LogDistancePathLoss(alpha=3.0),
        radio,
        cutoff_m=cutoff,
        far_field="none" if budget_kind == "none" else "packing",
    )
    budget = sparse.floor_mw
    if budget_kind == "extra":
        extra = rng.uniform(0.0, 2.0 * radio.noise_mw, size=n)
        budget = extra if budget is None else budget + extra
    sparse_model = PhysicalInterferenceModel(sparse.power, radio, budget)
    dense_model = PhysicalInterferenceModel(sparse.power.toarray(), radio, budget)
    slots = []
    for size in sizes:
        nodes = rng.choice(n, size=2 * size, replace=False).tolist()
        slots.append(list(zip(nodes[:size], nodes[size:])))
    return sparse_model, dense_model, slots, rng


def flat(slots, first):
    """``seed`` arguments for ``slots`` appended after ``first`` open slots."""
    slot_of = [first + j for j, members in enumerate(slots) for _ in members]
    senders = [s for members in slots for s, _ in members]
    receivers = [r for members in slots for _, r in members]
    return slot_of, senders, receivers


def one_at_a_time(arena, slots):
    """``open_slot`` for each slot's first member, ``add`` for the rest."""
    for (s, r), *rest in slots:
        j = open_slot(arena, s, r)
        for s, r in rest:
            arena.can_add_all(s, r)
            arena.add(j, s, r)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


def assert_same_arena(ours, theirs, candidates):
    """Every column to the bit, every slot's members, every verdict."""
    assert (ours.n_slots, ours._m) == (theirs.n_slots, theirs._m)
    m = ours._m
    for name in COLUMNS:
        assert bits(getattr(ours, name)[:m]) == bits(getattr(theirs, name)[:m]), name
    for j in range(ours.n_slots):
        for a, b in zip(slot_members(ours, j), slot_members(theirs, j)):
            assert a.tolist() == b.tolist()
    for s, r in candidates:
        assert ours.can_add_all(s, r).tolist() == theirs.can_add_all(s, r).tolist()


def assert_sums_equal_states(arena, states):
    """Same slots and members as the scalar oracle, and — bit for bit — the
    interference sums ``SlotState.add`` accumulated."""
    assert arena.n_slots == len(states)
    for j, state in enumerate(states):
        snd, rcv = slot_members(arena, j)
        assert (snd.tolist(), rcv.tolist()) == (state.senders, state.receivers)
        rows = slot_rows(arena, j)
        data, ack = interference_sums(arena)
        assert bits(data[rows]) == bits(state._data_interf)
        assert bits(ack[rows]) == bits(state._ack_interf)


def states_for(model, slots):
    states = []
    for members in slots:
        states.append(SlotState(model))
        for s, r in members:
            states[-1].add(s, r)
    return states


def candidates_for(slots, rng, n):
    """Every member link again, and as many random node pairs."""
    links = [link for members in slots for link in members]
    pairs = rng.integers(0, n, size=(len(links), 2)).tolist()
    return links + [tuple(pair) for pair in pairs]


@given(bulk_instance(), st.integers(min_value=0, max_value=3), st.sampled_from([1, 3, 256]))
@settings(max_examples=100, deadline=None)
def test_seed_equals_open_slot_then_add_in_turn(instance, opened, capacity):
    """Dense: ``seed`` after ``opened`` slots built one member at a time
    (capacity 1 regrows the columns inside the seed)."""
    _, model, slots, rng = instance
    before, bulk = slots[:opened], slots[opened:]
    one, many = SlotArena(model, capacity=capacity), SlotArena(model, capacity=capacity)
    for arena in (one, many):
        one_at_a_time(arena, before)
    one_at_a_time(one, bulk)
    many.seed(*flat(bulk, many.n_slots))
    assert_same_arena(many, one, candidates_for(slots, rng, model.n_nodes))
    assert_sums_equal_states(many, states_for(model, slots))


@given(bulk_instance(), st.sampled_from([1, 3, 256]))
@settings(max_examples=100, deadline=None)
def test_add_into_several_slots_equals_add_per_slot(instance, capacity):
    """Dense: one link into several distinct slots, in any order, in one
    call ≡ one ``add`` per slot in that order ≡ ``SlotState.add`` per slot
    (whose own sum over a full slot is the first with eight terms)."""
    _, model, slots, rng = instance
    one, many = SlotArena(model, capacity=capacity), SlotArena(model, capacity=capacity)
    for arena in (one, many):
        arena.seed(*flat(slots, 0))
    states = states_for(model, slots)
    candidates = candidates_for(slots, rng, model.n_nodes)
    for s, r in candidates[: 2 * len(slots)]:
        into = rng.permutation(one.n_slots)[: rng.integers(1, one.n_slots + 1)].tolist()
        one.can_add_all(s, r)
        many.can_add_all(s, r)
        for j in into:
            one.add(j, s, r)
            states[j].add(s, r)
        many.add(into, s, r)
        assert_same_arena(many, one, candidates[:4])
        assert_sums_equal_states(many, states)
    assert_same_arena(many, one, candidates)


def unordered_sums(arena):
    """Every slot's members with their interference sums, free of the order
    members joined it in (wave-mates in one slot join in wave order, not in
    allocation order; their sums do not see each other)."""
    data, ack = interference_sums(arena)
    out = []
    for j in range(arena.n_slots):
        rows = slot_rows(arena, j)
        members = zip(arena._msnd[rows].tolist(), arena._mrcv[rows].tolist())
        out.append(sorted(zip(members, bits(data[rows]), bits(ack[rows]))))
    return out


@given(packing_instance())
@settings(max_examples=100, deadline=None)
def test_sparse_waves_agree_with_dense_and_slotstate(instance):
    """The sparse bulk entry: ``first_fit`` of a wave — links with pairwise
    disjoint CSR neighbourhoods, grouped as ``greedy_physical`` groups
    them, each wanting 0-3 slots as consecutive copies — on a sparse arena
    and one regrown from capacity 1 on both axes ≡ the dense arena on the
    dense twin and ``SlotState`` taking the copies one at a time in
    allocation order: every verdict row, every copy's slot, and the sums
    after every wave."""
    if instance is None:
        return
    sparse_model, links = instance
    dense_model = dense_twin(sparse_model)
    heads = np.repeat(links.heads, links.demand)
    tails = np.repeat(links.tails, links.demand)
    wave = _waves(sparse_model.power, heads, tails)
    with mock.patch.object(feasibility, "_SLOT_CAPACITY", 1):
        regrown = SlotArena(sparse_model, capacity=1)
    sparse = [SlotArena(sparse_model), regrown]
    dense = SlotArena(dense_model)
    states: list[SlotState] = []
    for w in range(1, int(wave.max(initial=0)) + 1):
        mates = np.flatnonzero(wave == w)
        opened = len(states)
        rows = [sparse_verdicts(arena, heads[mates], tails[mates]) for arena in sparse]
        got = [arena.first_fit(heads[mates], tails[mates]).tolist() for arena in sparse]
        expected = []
        for i, (s, r) in enumerate(zip(heads[mates].tolist(), tails[mates].tolist())):
            admits = [state.can_add(s, r) for state in states]
            # Wave-mates do not see each other: the slots open before the
            # wave judge copy i as they judged it then.
            for row in rows:
                assert row[i].tolist() == admits[:opened]
            assert dense.can_add_all(s, r).tolist() == admits
            j = (admits + [True]).index(True)
            if j < len(states):
                dense.add(j, s, r)
            else:
                assert open_slot(dense, s, r) == j
                states.append(SlotState(dense_model))
            states[j].add(s, r)
            expected.append(j)
        assert got == [expected, expected]
        assert_sums_equal_states(dense, states)
        for arena in sparse:
            assert unordered_sums(arena) == unordered_sums(dense)


TESTS = ("can_add_all", "handshake_verdicts", "admit_sinrs")


def columns(arena):
    return [bits(getattr(arena, name)[: arena._m]) for name in COLUMNS]


@given(bulk_instance(), st.data())
@settings(max_examples=100, deadline=None)
def test_dense_add_writes_what_its_test_gathered(instance, data):
    """Dense: ``add`` after any of the three tests — one candidate, or one
    per slot (lanes; ``admit_sinrs`` takes one) — into several slots in one
    call or one call per slot leaves every column ≡ ``SlotState.add`` per
    slot, bit for bit; an add of another candidate, into a slot admitted
    into since the test, or after a ``seed`` / ``insert``, raises and
    writes nothing."""
    _, model, slots, rng = instance
    arena = SlotArena(model)
    arena.seed(*flat(slots, 0))
    states = states_for(model, slots)
    pool = [(s, r) for s, r in candidates_for(slots, rng, model.n_nodes) if s != r]

    def refused(*args):
        before = columns(arena)
        with pytest.raises(ValueError):
            arena.add(*args)
        assert columns(arena) == before

    refused(0, *pool[0])  # no test yet
    for s, r in pool[: 2 * len(slots)]:
        test = data.draw(st.sampled_from(TESTS))
        n = arena.n_slots
        snd, rcv = np.full(n, s), np.full(n, r)
        if test != "admit_sinrs" and data.draw(st.booleans()):
            picks = rng.integers(0, len(pool), size=n)
            snd, rcv = (np.array([pool[i][side] for i in picks]) for side in (0, 1))
            getattr(arena, test)(snd, rcv)
        else:
            getattr(arena, test)(s, r)
        into = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
        if data.draw(st.booleans()):
            arena.add(into, snd[into], rcv[into])
        else:
            for j in into:
                arena.add(j, int(snd[j]), int(rcv[j]))
        for j in into:
            states[j].add(int(snd[j]), int(rcv[j]))
        assert_sums_equal_states(arena, states)
        j = into[0]
        refused(j, int(snd[j]), int(rcv[j]))  # admitted into since the test
        rest = sorted(set(range(n)) - set(into))
        if rest:
            other = next(c for c in pool if c != (snd[rest[0]], rcv[rest[0]]))
            refused(rest[0], *other)  # not the tested candidate
    s, r = pool[0]
    arena.can_add_all(s, r)
    arena.insert([0], [s], [r])
    refused(1, s, r)
    arena.can_add_all(s, r)
    open_slot(arena, s, r)
    refused(1, s, r)
