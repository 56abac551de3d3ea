"""The wave packer against the one-link-at-a-time loop it replaced.

On a sparse power matrix ``greedy_physical`` admits candidates a *wave* at
a time — links whose CSR neighbourhoods are pairwise disjoint — through
``SlotArena.can_add_many`` / ``add_many``.  That is an execution order, not
an algorithm: the schedule must equal the serial loop's slot for slot and
list for list, and the arena it leaves behind must hold the same members,
interference sums and slot tables to the last bit.  The serial loop lives
on in ``tests/conftest.py::serial_pack`` as the oracle: the same batched
kernel one link per call, whose verdicts the arena suite pins to
``SlotState``.  The kernel's rows are differenced here against the dense
arena's one-candidate test too.
"""

import importlib
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
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
from tests.conftest import interference_sums, open_slot, serial_pack, slot_members, slot_rows

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


def packed(links, model, ordering, serial, capacity, slot_capacity):
    """``greedy_physical``'s schedule and every arena it packed in, with
    the packer swapped for the serial oracle when ``serial``."""
    arenas = []

    def recording(model):
        arenas.append(SlotArena(model, capacity=capacity))
        return arenas[-1]

    with mock.patch.object(feasibility, "_SLOT_CAPACITY", slot_capacity):
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


def arena_state(arena):
    """Everything a sparse arena holds, free of member-row numbering (the
    wave packer appends rows wave by wave, the loop link by link): members
    by (slot, sender) — a node sends once per slot — and the slot tables
    naming the listening link instead of its row."""
    m, n = arena._m, arena.n_slots
    rows = np.lexsort((arena._msnd[:m], arena._slot_id[:m]))
    link = arena._msnd * arena._power.n + arena._mrcv
    listener = arena._listener
    state = {
        "member": [arena._slot_id[rows].tolist(), link[rows].tolist()],
        "landing": bits(arena._landing[:, :n]),
        "listener": np.where(listener >= 0, link[listener], -1)[:, :n].tolist(),
    }
    for name in ("_interf", "_sig"):
        data, ack = getattr(arena, name)
        state[name] = [bits(data[rows]), bits(ack[rows])]
    # Nothing past the open slots, whatever width the tables grew to.
    assert (listener[:, n:] == -1).all() and not arena._landing[:, n:].any()
    return state


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
    wave, wave_arenas = packed(links, model, ordering, False, capacity, slot_capacity)
    serial, serial_arenas = packed(links, model, ordering, True, capacity, slot_capacity)
    assert [slot.links for slot in wave.slots] == [slot.links for slot in serial.slots]
    assert wave.satisfies_demand()
    # Repair rounds included: the same number of packs, arena for arena.
    assert len(wave_arenas) == len(serial_arenas)
    for ours, theirs in zip(wave_arenas, serial_arenas):
        assert arena_state(ours) == arena_state(theirs)
    truth, oracle_truth = wave.truth, serial.truth
    assert (truth is None) == (oracle_truth is None)
    if truth is not None:
        assert truth.repaired_tx == oracle_truth.repaired_tx
        assert bits(truth.margins) == bits(oracle_truth.margins)


def slot_sums(arena):
    """Every slot's members and their interference sums, dense or sparse."""
    data, ack = interference_sums(arena)
    rows = [slot_rows(arena, j) for j in range(arena.n_slots)]
    return [
        (*(side.tolist() for side in slot_members(arena, j)), bits(data[r]), bits(ack[r]))
        for j, r in enumerate(rows)
    ]


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


@given(packing_instance())
@settings(max_examples=60, deadline=None)
def test_batched_kernel_rows_equal_the_one_candidate_kernel(instance):
    """``can_add_many`` row by row ≡ the dense arena's one-candidate
    ``can_add_all`` over the same entries, and ``add_many`` of one link into
    several slots ≡ dense ``add`` / ``open_slot`` of each in turn (members
    and interference sums to the bit) — on arenas filled by a serial pack,
    every link replayed as a candidate."""
    if instance is None:
        return
    model, links = instance
    dense = PhysicalInterferenceModel(model.power.toarray(), model.radio, model.budget_mw)
    arenas = [SlotArena(dense, capacity=2), SlotArena(model, capacity=2)]
    demanded = np.flatnonzero(links.demand > 0)
    if demanded.size == 0:
        return
    for arena in arenas:
        serial_pack(links, model, demanded, links.demand, new_arena=lambda _: arena)
    one, many = arenas
    assert slot_sums(one) == slot_sums(many)
    verdicts = many.can_add_many(links.heads, links.tails)
    assert verdicts.shape == (links.n_links, many.n_slots)
    for k in range(links.n_links):
        s, r = int(links.heads[k]), int(links.tails[k])
        expected = one.can_add_all(s, r)
        assert verdicts[k].tolist() == expected.tolist()
        into = np.flatnonzero(expected)[:2].tolist()
        if not into:
            continue
        into.append(one.n_slots)  # and a fresh slot on top
        for j in into[:-1]:
            one.add(j, s, r)
        assert open_slot(one, s, r) == into[-1]
        many.add_many(into, [s] * len(into), [r] * len(into))
        assert slot_sums(one) == slot_sums(many)
        verdicts = many.can_add_many(links.heads, links.tails)


def test_add_many_rejects_a_busy_endpoint_before_writing_anything():
    radio = RadioConfig()
    positions = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0], [4000.0, 0.0], [4030.0, 0.0]])
    tx = np.full(5, 10 ** (12.0 / 10.0))
    sparse = sparse_gain_model(positions, tx, LogDistancePathLoss(alpha=3.0), radio)
    arena = SlotArena(sparse.interference_model(radio))
    arena.add_many([0], [0], [1])
    before = arena_state(arena)
    with pytest.raises(ValueError, match="link 2->1 shares a node with a member of slot 0"):
        arena.add_many([0, 0, 1], [3, 2, 2], [4, 1, 1])
    assert arena_state(arena) == before and arena.n_slots == 1
    arena.add_many([0, 1], [3, 2], [4, 1])
    assert [a.tolist() for a in slot_members(arena, 0)] == [[0, 3], [1, 4]]
    assert [a.tolist() for a in slot_members(arena, 1)] == [[2], [1]]
