"""The arena's candidate SINR against the batched kernel's what-if entry.

``SlotArena.admit_sinrs`` returns, with every slot's verdict, the
candidate's ``min(data, ACK)`` SINR with that slot's members on the air,
from the interference sums the admission test already holds.  A patch
grants a joining link its rate tier from that value instead of building a
what-if member list and handing it to the kernel, so the value must be the
kernel's to the bit: the last entry of ``feasibility.what_if_sinrs`` over
``members + [candidate]``.  Checked on every slot that shares no node with
the candidate (a superset of the slots that admit), on the dense twins of
truncated and value-dense sparse matrices, with and without a
``budget_mw``, on slots of up to ten members — the kernel's sum is
order-sensitive from eight terms.  Writing the SINR as ``signal / (noise +
interference)``, without the kernel's add-then-subtract of the signal,
fails here.  A patch is refused on a sparse model, and so is the sparse
arena's every dense entry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import sparse_gain_model
from repro.scheduling.feasibility import SlotArena, what_if_sinrs
from tests.conftest import open_slot


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def grant_instance(draw):
    """A dense model (the twin of a truncated or a value-dense sparse one;
    budgeted or not), slots of 1-10 node-disjoint links seeded into an
    arena, and candidates."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(["truncated", "value-dense"]))
    budgeted = draw(st.booleans())
    sizes = draw(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    n = 36
    radio = RadioConfig()
    sparse = sparse_gain_model(
        rng.uniform(0, np.sqrt(n) * 45.0, size=(n, 2)),
        10 ** (12.0 / 10.0) * rng.uniform(0.5, 1.5, size=n),
        LogDistancePathLoss(alpha=3.0),
        radio,
        cutoff_m=math.inf if kind == "value-dense" else 150.0,
    )
    power = sparse.power.toarray()
    budget = rng.uniform(0.0, 2.0 * radio.noise_mw, size=n) if budgeted else None
    model = PhysicalInterferenceModel(power, radio, budget)
    slots = []
    for size in sizes:
        nodes = rng.choice(n, size=2 * size, replace=False).tolist()
        slots.append(list(zip(nodes[:size], nodes[size:])))
    candidates = [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(6)]
    return model, slots, candidates


@given(grant_instance())
@settings(max_examples=120, deadline=None)
def test_candidate_sinr_is_the_kernels_what_if_entry(instance):
    model, slots, candidates = instance
    arena = SlotArena(model)
    for j, members in enumerate(slots):
        arena.seed([j] * len(members), [s for s, _ in members], [r for _, r in members])
    for sender, receiver in candidates:
        ok, sinr = arena.admit_sinrs(sender, receiver)
        assert ok.tolist() == arena.can_add_all(sender, receiver).tolist()
        for j, members in enumerate(slots):
            if {sender, receiver} & {node for link in members for node in link}:
                assert not ok[j]
                continue
            links = members + [(sender, receiver)]
            heads = np.array([s for s, _ in links])
            tails = np.array([r for _, r in links])
            free, whatif = what_if_sinrs(
                model, heads, tails, np.arange(len(members)), np.array([len(members)])
            )
            assert free.tolist() == [len(members)]
            assert bits(sinr[j : j + 1]) == bits(whatif[0, -1:])


def test_an_empty_arena_and_a_self_loop_grant_nothing(grid64):
    arena = SlotArena(grid64.model)
    ok, sinr = arena.admit_sinrs(0, 1)
    assert ok.size == sinr.size == 0
    open_slot(arena, 0, 1)
    ok, sinr = arena.admit_sinrs(5, 5)
    assert ok.tolist() == [False] and sinr.size == 1


def test_a_sparse_arena_refuses_every_dense_entry(grid16):
    """``first_fit`` is the sparse arena's one entry; the dense tests and
    the untested inserts a patch makes are refused before anything is
    written."""
    sparse = sparse_gain_model(
        grid16.positions, grid16.tx_power_mw, grid16.propagation, grid16.radio
    )
    arena = SlotArena(sparse.interference_model(grid16.radio))
    assert arena.first_fit([0], [1]).tolist() == [0]
    for test in (arena.can_add_all, arena.admit_sinrs, arena.handshake_verdicts):
        with pytest.raises(ValueError, match="dense power matrix"):
            test(5, 6)
    with pytest.raises(ValueError, match="test of its candidate"):
        arena.add(0, 5, 6)
    assert (arena._m, arena.n_slots) == (1, 1)
