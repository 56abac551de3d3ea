"""Lanes of one lockstep first-fit pack against the same packs run alone.

``greedy_physical.first_fit_dense`` packs several independent problems —
*lanes*, the sharded engine's regions — on one dense arena whose power
matrix is the block-diagonal of theirs (``traffic.sharded._block_diagonal``):
one pass tests the next link of every lane (lanes end together), each
slot against its own lane's candidate.  That is an execution order, not new
arithmetic: every lane's ``(slots, last, vetoes)`` must be what the
lane packed alone returns, and the lane's rows of the shared arena must be
its own arena's — every column to the bit, node numbers shifted by the
block's offset.  Lanes are drawn with and without guard budgets, of unequal
lengths (empty ones included), with demands above 1; packs run with and
without FDD's veto count.  One lane, every unsharded dense pack, runs the
same loop, and its slots are ``tests/conftest.py::serial_pack``'s.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import first_fit_dense
from repro.scheduling.links import LinkSet
from repro.traffic.sharded import _block_diagonal
from tests.conftest import serial_pack

COLUMNS = ("_slot_id", "_msnd", "_mrcv", "_di", "_ai")


@st.composite
def lane(draw):
    """One lane: a random deployment's dense model (guard budget or not)
    and up to 12 links that decode alone, each wanting 1-3 memberships."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n = draw(st.integers(min_value=6, max_value=20))
    radio = RadioConfig()
    side = draw(st.sampled_from([120.0, 300.0, 600.0]))
    positions = rng.uniform(0.0, side, size=(n, 2))
    tx = 10 ** (12.0 / 10.0) * rng.uniform(0.5, 1.5, size=n)
    power = received_power_matrix(positions, tx, LogDistancePathLoss(alpha=3.0))
    budget = None
    if draw(st.booleans()):
        budget = rng.uniform(0.0, 2.0 * radio.noise_mw, size=n)
    model = PhysicalInterferenceModel(power, radio, budget)
    pairs = np.array([(a, b) for a in range(n) for b in range(n) if a != b])
    pairs = pairs[rng.permutation(len(pairs))]
    pairs = pairs[feasible_alone(model, pairs[:, 0], pairs[:, 1])]
    pairs = pairs[: draw(st.integers(min_value=0, max_value=12))]
    want = rng.integers(1, 4, size=len(pairs))
    return model, pairs[:, 0].copy(), pairs[:, 1].copy(), want


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


def alone(model, heads, tails, want, count_vetoes):
    arena = SlotArena(model)
    [result] = first_fit_dense(arena, [heads], [tails], [want], count_vetoes)
    return arena, result


def lockstep(lanes, count_vetoes):
    model, offsets = _block_diagonal([m for m, *_ in lanes])
    arena = SlotArena(model)
    results = first_fit_dense(
        arena,
        [heads + lo for (_, heads, _, _), lo in zip(lanes, offsets)],
        [tails + lo for (_, _, tails, _), lo in zip(lanes, offsets)],
        [want for *_, want in lanes],
        count_vetoes,
    )
    return arena, offsets, results


def lane_rows(arena, offsets, s):
    """The shared arena's member rows of lane ``s`` (its block's nodes), in
    row order, and their slots numbered within the lane."""
    m = arena._m
    lane_of = np.searchsorted(offsets, arena._msnd[:m], side="right") - 1
    rows = np.flatnonzero(lane_of == s)
    slot = arena._slot_id[rows]
    return rows, np.searchsorted(np.unique(slot), slot)


@given(st.lists(lane(), min_size=1, max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lockstep_lanes_equal_each_lane_packed_alone(lanes, count_vetoes):
    arena, offsets, results = lockstep(lanes, count_vetoes)
    assert len(results) == len(lanes)
    for s, ((model, heads, tails, want), got) in enumerate(zip(lanes, results)):
        solo, expected = alone(model, heads, tails, want, count_vetoes)
        slots, last, vetoes = got
        assert slots == expected[0]
        assert last.tolist() == expected[1].tolist()
        assert vetoes == expected[2]
        if not count_vetoes:
            assert vetoes == 0
        rows, local = lane_rows(arena, offsets, s)
        m = solo._m
        assert rows.size == m
        assert local.tolist() == solo._slot_id[:m].tolist()
        assert (arena._msnd[rows] - offsets[s]).tolist() == solo._msnd[:m].tolist()
        assert (arena._mrcv[rows] - offsets[s]).tolist() == solo._mrcv[:m].tolist()
        assert bits(arena._di[rows]) == bits(solo._di[:m])
        assert bits(arena._ai[rows]) == bits(solo._ai[:m])
    assert arena.n_slots == sum(len(r[0]) for r in results)


@given(lane(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_one_lane_is_the_serial_pack(one, count_vetoes):
    model, heads, tails, want = one
    _, (slots, last, _) = alone(model, heads, tails, want, count_vetoes)
    links = LinkSet(heads=heads, tails=tails, demand=want, ids=np.arange(heads.size))
    serial = serial_pack(links, model, np.arange(heads.size), want)
    assert slots == [slot.links for slot in serial]
    # Every link's last membership.
    latest = np.full(heads.size, -1)
    for j, members in enumerate(slots):
        latest[members] = j
    assert last.tolist() == latest.tolist()


def test_short_lanes_leave_the_long_one_alone():
    """Lanes of very different lengths, with and without budgets: the long
    lane packs alone until the short ones join it for the last steps."""
    radio = RadioConfig()
    rng = np.random.default_rng(5)
    lanes = []
    for n_links, budgeted in ((9, False), (1, True), (0, False)):
        positions = rng.uniform(0.0, 400.0, size=(12, 2))
        power = received_power_matrix(
            positions, np.full(12, 16.0), LogDistancePathLoss(alpha=3.0)
        )
        budget = np.full(12, radio.noise_mw) if budgeted else None
        model = PhysicalInterferenceModel(power, radio, budget)
        pairs = np.array([(a, b) for a in range(12) for b in range(12) if a != b])
        pairs = pairs[feasible_alone(model, pairs[:, 0], pairs[:, 1])][:n_links]
        lanes.append((model, pairs[:, 0].copy(), pairs[:, 1].copy(), np.full(len(pairs), 2)))
    _, _, results = lockstep(lanes, True)
    for (model, heads, tails, want), got in zip(lanes, results):
        _, expected = alone(model, heads, tails, want, True)
        assert got[0] == expected[0] and got[2:] == expected[2:]
    assert results[2] == ([], results[2][1], 0) and results[2][1].size == 0
