"""The wave packer against the one-link-at-a-time loop it replaced.

On a sparse power matrix ``greedy_physical`` admits candidates a *wave* at
a time — links whose CSR neighbourhoods are pairwise disjoint, a link
wanting ``d`` slots as ``d`` copies — through ``SlotArena.first_fit``.
That is an execution order, not an algorithm: the schedule must equal the
serial loop's slot for slot and list for list, and the arena it leaves
behind must hold the members, interference sums, landing table and
listener lists that loop implies, to the last bit.  The serial loop lives
on in ``tests/conftest.py::serial_pack`` as the oracle: the dense arena one
link per call on the dense twin of the sparse matrix, whose verdicts the
arena suite pins to ``SlotState``; the tables it implies are folded here
from its members, in admission order, over the twin's rows.
"""

import importlib
import math
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import SparsePowerMatrix, sparse_gain_model
from repro.scheduling import feasibility
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.links import LinkSet
from repro.scheduling.orderings import EDGE_ORDERINGS
from tests.conftest import serial_pack

# ``repro.scheduling.greedy_physical`` the attribute is the function.
gp = importlib.import_module("repro.scheduling.greedy_physical")


@st.composite
def packing_instance(draw):
    """A random deployment several neighbourhoods wide under a sparse
    model, and standalone-feasible links with demands 0-3 on it."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=30, max_value=150))
    alpha = draw(st.floats(min_value=2.2, max_value=5.0, exclude_min=True))
    spread = draw(st.floats(min_value=0.6, max_value=2.0))
    cutoff_kind = draw(st.sampled_from(["cs", "near", "near", "near", "inf"]))
    far_field = draw(st.sampled_from(["none", "packing"]))
    extra_budget = draw(st.booleans())
    bare = draw(st.booleans())
    n_links = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(seed)
    radio = RadioConfig(alpha=alpha)
    propagation = LogDistancePathLoss(alpha=alpha)
    tx = 10 ** (12.0 / 10.0) * rng.uniform(0.5, 1.5, size=n)
    reach = propagation.range_for_snr(float(tx.mean()), radio.noise_mw, radio.beta)
    positions = rng.uniform(0, reach * math.sqrt(n) * spread, size=(n, 2))
    cutoff = {"cs": None, "near": 1.2 * reach, "inf": math.inf}[cutoff_kind]
    sparse = sparse_gain_model(
        positions, tx, propagation, radio, cutoff_m=cutoff, far_field=far_field
    )
    power = sparse.power
    if bare:  # hand-built: the same entries, no geometry, so no repair
        power = SparsePowerMatrix(n, power.keys, power.entries()[2])
    budget = sparse.floor_mw
    if extra_budget:
        extra = rng.uniform(0.0, 2.0 * radio.noise_mw, size=n)
        budget = extra if budget is None else budget + extra
    model = PhysicalInterferenceModel(power, radio, budget)
    heads, tails = np.divmod(np.arange(n * n), n)
    alone = feasible_alone(model, heads, tails)
    if not alone.any():
        return None
    pick = rng.choice(np.flatnonzero(alone), size=min(n_links, int(alone.sum())), replace=False)
    links = LinkSet(
        heads=heads[pick],
        tails=tails[pick],
        demand=rng.integers(0, 4, size=pick.size),
        ids=rng.permutation(pick.size),
    )
    return model, links


def packed(links, model, ordering, serial, capacity, slot_capacity, list_width):
    """``greedy_physical``'s schedule and every arena it packed in, with
    the packer swapped for the serial oracle when ``serial``."""
    arenas = []

    def recording(model):
        arenas.append(SlotArena(model, capacity=capacity))
        return arenas[-1]

    with mock.patch.multiple(feasibility, _SLOT_CAPACITY=slot_capacity, _LIST_WIDTH=list_width):
        with mock.patch.object(gp, "SlotArena", recording):
            if serial:
                oracle = partial(serial_pack, new_arena=recording)
                with mock.patch.object(gp, "first_fit_pack", oracle):
                    schedule = greedy_physical(links, model, ordering)
            else:
                schedule = greedy_physical(links, model, ordering)
    return schedule, arenas


def bits(values):
    return np.ascontiguousarray(values).view(np.int64).tolist()


def arena_state(arena, list_width):
    """Everything a sparse arena holds, free of member-row numbering (the
    wave packer appends rows wave by wave, the loop link by link): members
    by (slot, sender) — a node sends once per slot — the landing table, and
    every cell's listener in every open slot, read from the cell's list and
    named by link instead of row.  Of a dense arena, the same tables as its
    members imply them (:func:`implied_state`)."""
    m, n = arena._m, arena.n_slots
    rows = np.lexsort((arena._msnd[:m], arena._slot_id[:m]))
    if not arena._use_sparse:
        return implied_state(arena, rows, list_width)
    link = arena._msnd * arena._power.n + arena._mrcv
    lists = arena._lists
    listed = lists >= 0
    # Each list holds its cell's members in admission order, packed to the
    # front, one per slot.
    assert (listed[:, :-1] >= listed[:, 1:]).all()
    assert (np.diff(lists, axis=1)[listed[:, 1:]] > 0).all()
    cell, pos = listed.nonzero()
    heard = lists[cell, pos]
    assert (arena._slot_id[heard] < n).all()
    listener = np.full((lists.shape[0], n), -1)
    listener[cell, arena._slot_id[heard]] = link[heard]
    assert (listener >= 0).sum() == heard.size
    state = {
        "member": [arena._slot_id[rows].tolist(), link[rows].tolist()],
        "landing": bits(arena._landing[:, :n]),
        "listener": listener.tolist(),
        "width": lists.shape[1],
    }
    for name in ("_interf", "_sig"):
        data, ack = getattr(arena, name)
        state[name] = [bits(data[rows]), bits(ack[rows])]
    # Nothing past the open slots, whatever width the landing table grew to.
    assert not arena._landing[:, n:].any()
    return state


def implied_state(arena, rows, list_width):
    """:func:`arena_state` of the sparse arena that admits a dense arena's
    members in its admission order: each ``(cell, slot)`` landing entry the
    left fold of the members' rows of the power matrix (an entry the sparse
    matrix skips adds an exact ``0.0``), each cell's listener the member
    whose receiver (data cell) or sender (ACK cell) it is, the lists as
    wide as the busiest cell or ``list_width``, and each member's signal
    its own two entries."""
    m, n = arena._m, arena.n_slots
    power = arena._flat.reshape(-1, arena._power.shape[0])
    nodes = power.shape[0]
    sid, snd, rcv = arena._slot_id[:m], arena._msnd[:m], arena._mrcv[:m]
    link = snd * nodes + rcv
    landing = np.zeros((2 * nodes, n))
    for row in range(m):  # admission order within every slot
        landing[:nodes, sid[row]] += power[snd[row]]
        landing[nodes:, sid[row]] += power[rcv[row]]
    cells = np.concatenate((rcv, snd + nodes))
    listener = np.full((2 * nodes, n), -1)
    listener[cells, np.tile(sid, 2)] = np.tile(link, 2)
    return {
        "member": [sid[rows].tolist(), link[rows].tolist()],
        "landing": bits(landing),
        "listener": listener.tolist(),
        "width": max(list_width, int(np.bincount(cells, minlength=1).max(initial=0))),
        "_interf": [bits(arena._di[rows]), bits(arena._ai[rows])],
        "_sig": [bits(power[snd, rcv][rows]), bits(power[rcv, snd][rows])],
    }


@given(
    packing_instance(),
    st.sampled_from(sorted(EDGE_ORDERINGS)),
    st.sampled_from([1, 3, 256]),
    st.sampled_from([1, 2, 16]),
)
@settings(max_examples=120, deadline=None)
def test_wave_pack_equals_serial_pack(instance, ordering, capacity, slot_capacity):
    if instance is None:
        return
    model, links = instance
    assert_wave_pack_equals_serial_pack(
        model, links, ordering, capacity, slot_capacity, slot_capacity
    )


def placed_model(positions):
    """A sparse model (default cutoff and floor) over ``positions``, 12 dBm
    everywhere."""
    radio = RadioConfig()
    tx = np.full(len(positions), 10 ** (12.0 / 10.0))
    sparse = sparse_gain_model(
        np.asarray(positions, dtype=float), tx, LogDistancePathLoss(alpha=3.0), radio
    )
    return sparse.interference_model(radio)


def test_wave_pack_spreads_a_link_over_several_slots_wave_by_wave():
    """Two links kilometres apart share the first wave, and both need fresh
    slots: link 0 -> 1 wants three, so its copies take waves 1-3, one fresh
    slot each, and its cells take three list positions."""
    model = placed_model([[0, 0], [30, 0], [4000, 0], [4030, 0]])
    links = LinkSet(
        heads=np.array([0, 3]), tails=np.array([1, 2]), demand=np.array([3, 2]), ids=np.arange(2)
    )
    assert gp._waves(model.power, links.heads, links.tails).tolist() == [1, 1]
    copies = np.repeat(links.heads, links.demand), np.repeat(links.tails, links.demand)
    assert gp._waves(model.power, *copies).tolist() == [1, 2, 3, 1, 2]
    [arena] = assert_wave_pack_equals_serial_pack(
        model, links, "id", 256, feasibility._SLOT_CAPACITY, feasibility._LIST_WIDTH
    )
    n = model.power.n
    assert (arena._lists[[1, n + 0, 2, n + 3]] >= 0).sum(axis=1).tolist() == [3, 3, 2, 2]


def test_wave_pack_grows_a_hub_list_past_its_initial_width():
    """Six spokes into one hub, and three pairs of neighbouring spokes far
    away: the hub's data cell hears one spoke per slot, six in all, and its
    list widens from the initial width to exactly six."""
    angles = np.arange(6) * np.pi / 3
    spokes = 30.0 * np.column_stack((np.cos(angles), np.sin(angles)))
    model = placed_model(np.vstack(([[0.0, 0.0]], spokes, spokes + 4000.0)))
    links = LinkSet(
        heads=np.r_[np.arange(1, 7), [7, 9, 11]],
        tails=np.r_[np.zeros(6, dtype=int), [8, 10, 12]],
        demand=np.ones(9, dtype=int),
        ids=np.arange(9),
    )
    arenas = assert_wave_pack_equals_serial_pack(
        model, links, "id", 256, feasibility._SLOT_CAPACITY, feasibility._LIST_WIDTH
    )
    lists = arenas[0]._lists
    assert lists.shape[1] == 6 > feasibility._LIST_WIDTH
    assert (lists[0] >= 0).sum() == 6


def assert_wave_pack_equals_serial_pack(
    model, links, ordering, capacity, slot_capacity, list_width
):
    """The wave pack ≡ ``serial_pack``: schedule, every arena, the repair's
    report.  Returns the wave pack's arenas."""
    sizes = capacity, slot_capacity, list_width
    wave, wave_arenas = packed(links, model, ordering, False, *sizes)
    serial, serial_arenas = packed(links, model, ordering, True, *sizes)
    assert [slot.links for slot in wave.slots] == [slot.links for slot in serial.slots]
    assert wave.satisfies_demand()
    # Repair rounds included: the same number of packs, arena for arena.
    assert len(wave_arenas) == len(serial_arenas)
    for ours, theirs in zip(wave_arenas, serial_arenas):
        assert arena_state(ours, list_width) == arena_state(theirs, list_width)
    truth, oracle_truth = wave.truth, serial.truth
    assert (truth is None) == (oracle_truth is None)
    if truth is not None:
        assert truth.repaired_tx == oracle_truth.repaired_tx
        assert bits(truth.margins) == bits(oracle_truth.margins)
    return wave_arenas


def neighbourhoods(power, heads, tails):
    return [
        set(power.rows([h, t])[1].tolist())
        for h, t in zip(heads.tolist(), tails.tolist())
    ]


@given(packing_instance(), st.sampled_from([1, 5, 512]))
@settings(max_examples=60, deadline=None)
def test_waves_are_disjoint_and_keep_the_order_of_every_conflict(instance, chunk):
    if instance is None:
        return
    model, links = instance
    with mock.patch.object(gp, "_WAVE_CHUNK", chunk):
        wave = gp._waves(model.power, links.heads, links.tails)
    near = neighbourhoods(model.power, links.heads, links.tails)
    assert sorted(set(wave.tolist())) == list(range(1, int(wave.max()) + 1))
    for later in range(links.n_links):
        for earlier in range(later):
            if near[earlier] & near[later]:
                assert wave[earlier] < wave[later]
            # ... hence members of one wave are pairwise disjoint.
    if model.power.value_dense:
        assert wave.tolist() == list(range(1, links.n_links + 1))
