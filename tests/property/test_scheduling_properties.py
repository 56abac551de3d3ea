"""Property tests: greedy schedules, routing forests, demand conservation,
the slot arena's dense / sparse / SlotState agreement, and the patcher's
sparse / dense agreement on top of it."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig, RateTable
from repro.routing.demand import aggregate_demand
from repro.phy.sparse import SparsePowerMatrix, sparse_gain_model
from repro.routing.forest import build_routing_forest
from repro.scheduling import feasibility
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.greedy_rate import greedy_rate
from repro.scheduling.links import LinkSet, forest_link_set
from repro.scheduling.metrics import improvement_over_linear, verify_schedule
from repro.scheduling.orderings import EDGE_ORDERINGS
from repro.topology.commgraph import communication_adjacency, is_connected
from repro.traffic.incremental import patch_schedule
from tests.conftest import SlotState, interference_sums, open_slot, slot_members, slot_rows


@st.composite
def connected_instance(draw):
    """A connected random network with a routing forest and demands."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=5, max_value=24))
    rng = np.random.default_rng(seed)
    radio = RadioConfig()
    model_prop = LogDistancePathLoss(alpha=3.0)
    for attempt in range(64):
        side = np.sqrt(n) * 45.0
        positions = rng.uniform(0, side, size=(n, 2))
        tx = np.full(n, 10 ** (12.0 / 10.0))
        power = received_power_matrix(positions, tx, model_prop)
        adj = communication_adjacency(power, radio.noise_mw, radio.beta)
        if is_connected(adj):
            break
    else:
        return None  # pathologically unlucky; skip
    model = PhysicalInterferenceModel(power, radio)
    n_gw = draw(st.integers(min_value=1, max_value=max(1, n // 5)))
    gws = rng.choice(n, size=n_gw, replace=False)
    forest = build_routing_forest(adj, gws, rng=rng)
    demand = rng.integers(0, 5, size=n)  # zero demands too
    demand[gws] = 0
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return model, forest, links, demand, gws


@given(connected_instance())
@settings(max_examples=40, deadline=None)
def test_greedy_schedule_always_valid(instance):
    if instance is None:
        return
    model, _forest, links, _demand, _gws = instance
    schedule = greedy_physical(links, model)
    report = verify_schedule(schedule, model)
    assert report.ok
    assert 0.0 <= improvement_over_linear(schedule) < 100.0
    assert schedule.length <= links.total_demand


@given(connected_instance(), st.sampled_from(sorted(EDGE_ORDERINGS)))
@settings(max_examples=25, deadline=None)
def test_greedy_valid_under_every_ordering(instance, ordering):
    if instance is None:
        return
    model, _forest, links, _demand, _gws = instance
    schedule = greedy_physical(links, model, ordering=ordering)
    assert verify_schedule(schedule, model).ok


@given(connected_instance())
@settings(max_examples=40, deadline=None)
def test_forest_demand_conservation(instance):
    if instance is None:
        return
    _model, forest, links, demand, gws = instance
    # Total demand crossing into gateways equals total generated demand.
    gateway_set = set(gws.tolist())
    into_gateways = sum(
        int(links.demand[k])
        for k in range(links.n_links)
        if int(links.tails[k]) in gateway_set
    )
    assert into_gateways == int(demand.sum())


@given(connected_instance())
@settings(max_examples=40, deadline=None)
def test_forest_depths_strictly_decrease_toward_root(instance):
    if instance is None:
        return
    _model, forest, _links, _demand, _gws = instance
    for v in range(forest.n_nodes):
        p = forest.parent[v]
        if p >= 0:
            assert forest.depth[p] == forest.depth[v] - 1


@given(connected_instance())
@settings(max_examples=40, deadline=None)
def test_link_demand_at_least_own_demand(instance):
    """A link carries at least the demand its head generates."""
    if instance is None:
        return
    _model, forest, links, demand, _gws = instance
    for k in range(links.n_links):
        head = int(links.heads[k])
        assert links.demand[k] >= demand[head]


def standalone_pairs(model):
    """(heads, tails) of every ordered node pair that decodes alone."""
    n = model.n_nodes
    heads, tails = np.divmod(np.arange(n * n), n)
    alone = feasible_alone(model, heads, tails)
    return heads[alone], tails[alone]


@st.composite
def admission_instance(draw):
    """A random deployment under one sparse and one equivalent dense model,
    plus a sequence of standalone-feasible links with demands."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=6, max_value=36))
    cutoff = draw(st.sampled_from([None, 150.0, math.inf]))  # None: CS radius
    budget_kind = draw(st.sampled_from(["none", "floor", "extra"]))
    n_links = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(seed)
    radio = RadioConfig()
    positions = rng.uniform(0, np.sqrt(n) * 45.0, size=(n, 2))
    tx = 10 ** (12.0 / 10.0) * rng.uniform(0.7, 1.3, size=n)
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
    heads, tails = standalone_pairs(dense_model)
    if heads.size == 0:
        return None
    pick = rng.choice(heads.size, size=min(n_links, heads.size), replace=False)
    demands = rng.integers(1, 4, size=pick.size)
    return sparse_model, dense_model, heads[pick], tails[pick], demands


def three_arenas(sparse_model, dense_model):
    """Sparse, dense, and the sparse path again from the smallest
    capacities: both the member-row axis and the slot axis regrow again and
    again."""
    with mock.patch.object(feasibility, "_SLOT_CAPACITY", 1):
        regrown = SlotArena(sparse_model, capacity=1)
    return SlotArena(sparse_model), SlotArena(dense_model), regrown


def assert_arenas_equal_states(arenas, states):
    """Same slots, same members in the same order, and — bit for bit — the
    same interference sums ``SlotState.add`` accumulated."""
    for arena in arenas:
        assert arena.n_slots == len(states)
        for j, state in enumerate(states):
            snd, rcv = slot_members(arena, j)
            assert snd.tolist() == state.senders
            assert rcv.tolist() == state.receivers
            rows = slot_rows(arena, j)
            data, ack = interference_sums(arena)
            assert data[rows].tolist() == state._data_interf
            assert ack[rows].tolist() == state._ack_interf


def admit_like_greedy(arenas, states, model, s, r, demand):
    """One link's greedy allocation: a verdict per slot, the first
    ``demand`` admitting slots, fresh singletons for the rest — with the
    arenas checked against the ``SlotState`` list before and after."""
    expected = np.array([state.can_add(s, r) for state in states], dtype=bool)
    for arena in arenas:
        np.testing.assert_array_equal(arena.can_add_all(s, r), expected)
    admitting = np.flatnonzero(expected)[:demand].tolist()
    for j in admitting:
        for arena in arenas:
            arena.add(j, s, r)
        states[j].add(s, r)
    for _ in range(demand - len(admitting)):
        for arena in arenas:
            assert open_slot(arena, s, r) == len(states)
        states.append(SlotState(model))
        states[-1].add(s, r)
    assert_arenas_equal_states(arenas, states)


@given(admission_instance())
@settings(max_examples=60, deadline=None)
def test_arena_sparse_dense_slotstate_agree_step_by_step(instance):
    if instance is None:
        return
    sparse_model, dense_model, heads, tails, demands = instance
    arenas = three_arenas(sparse_model, dense_model)
    states: list[SlotState] = []
    for s, r, demand in zip(heads.tolist(), tails.tolist(), demands.tolist()):
        admit_like_greedy(arenas, states, dense_model, s, r, demand)


@given(admission_instance(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_arena_seeded_without_testing_then_patched_agrees_step_by_step(instance, seed):
    """The access pattern of a patch: slots seeded *untested* with several
    members each (``open_slot`` + ``add``, subsets of a feasible round in
    its order, as pass 1 trims a cached schedule), then deficit links
    tested, admitted and overflowed into fresh singletons."""
    if instance is None:
        return
    sparse_model, dense_model, heads, tails, demands = instance
    links = list(zip(heads.tolist(), tails.tolist(), demands.tolist()))
    rng = np.random.default_rng(seed)
    # A feasible cached round, packed by the scalar oracle alone ...
    cached: list[SlotState] = []
    for s, r, demand in links:
        fits = [state for state in cached if state.can_add(s, r)][:demand]
        fresh = [SlotState(dense_model) for _ in range(demand - len(fits))]
        for state in fits + fresh:
            state.add(s, r)
        cached += fresh
    # ... of which random memberships survive, in cached order.
    arenas = three_arenas(sparse_model, dense_model)
    states: list[SlotState] = []
    for slot in cached:
        kept = [m for m in zip(slot.senders, slot.receivers) if rng.random() < 0.7]
        if not kept:
            continue
        states.append(SlotState(dense_model))
        for s, r in kept:
            for arena in arenas:
                if len(states[-1]):
                    arena.add(len(states) - 1, s, r)
                else:
                    open_slot(arena, s, r)
            states[-1].add(s, r)
        assert_arenas_equal_states(arenas, states)
    for k in rng.permutation(len(links)).tolist():
        s, r, _ = links[k]
        admit_like_greedy(arenas, states, dense_model, s, r, int(rng.integers(1, 4)))


@given(
    admission_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.sampled_from([None, 12, 60]),
)
@settings(max_examples=100, deadline=None)
def test_patch_schedule_sparse_model_matches_dense_model(instance, seed, rated, max_length):
    """``patch_schedule`` through the sparse arena ≡ through the dense one
    (same power values via ``toarray()``, same budget), slot list for slot
    list, rate-blind and under a ``RateTable``."""
    if instance is None:
        return
    sparse_model, dense_model, heads, tails, demands = instance
    links = LinkSet(heads=heads, tails=tails, demand=demands, ids=np.arange(heads.size))
    table = RateTable.geometric(dense_model.radio.beta) if rated else None
    if rated:
        cached = greedy_rate(links, dense_model, table)
    else:
        cached = greedy_physical(links, dense_model)
    # Demand drifts: some links empty, some shrink, some grow.
    rng = np.random.default_rng(seed)
    drift = rng.integers(-3, 6, links.n_links) * (rng.random(links.n_links) < 0.7)
    moved = replace(links, demand=np.maximum(links.demand + drift, 0))
    patched = [
        patch_schedule(cached, moved, model, max_length=max_length, table=table)
        for model in (sparse_model, dense_model)
    ]
    lists = [p if p is None else [slot.links for slot in p.slots] for p in patched]
    assert lists[0] == lists[1]
    if max_length is None:
        assert lists[0] is not None  # every link decodes alone: nothing to abandon
        assert rated or patched[0].satisfies_demand()


def test_arena_regrows_both_axes_without_changing_a_verdict():
    """Deterministic companion of the Hypothesis suite: a star of links
    around one hub (every pair shares the hub, so each play needs its own
    slot) overflows the initial row capacity *and* the initial slot
    capacity, then spokes elsewhere pack into those slots."""
    radio = RadioConfig()
    rng = np.random.default_rng(5)
    n = 30
    positions = rng.uniform(0, 250.0, size=(n, 2))
    positions[0] = (125.0, 125.0)
    tx = 10 ** (12.0 / 10.0) * rng.uniform(0.7, 1.3, size=n)
    sparse = sparse_gain_model(
        positions, tx, LogDistancePathLoss(alpha=3.0), radio, cutoff_m=150.0
    )
    sparse_model = sparse.interference_model(radio)
    dense_model = PhysicalInterferenceModel(
        sparse.power.toarray(), radio, sparse.floor_mw
    )
    pairs = list(zip(*(a.tolist() for a in standalone_pairs(dense_model))))
    hub_links = [(s, r) for s, r in pairs if r == 0]
    other = [(s, r) for s, r in pairs if s and r]
    assert hub_links
    plays = hub_links * (feasibility._SLOT_CAPACITY // len(hub_links) + 2) + other[::3]
    sparse_arena = SlotArena(sparse_model, capacity=4)
    dense_arena = SlotArena(dense_model, capacity=4)
    states: list[SlotState] = []
    for s, r in plays:
        expected = [state.can_add(s, r) for state in states]
        assert sparse_arena.can_add_all(s, r).tolist() == expected
        assert dense_arena.can_add_all(s, r).tolist() == expected
        if any(expected):
            j = expected.index(True)
            sparse_arena.add(j, s, r)
            dense_arena.add(j, s, r)
        else:
            j = open_slot(sparse_arena, s, r)
            assert open_slot(dense_arena, s, r) == j
            states.append(SlotState(dense_model))
        states[j].add(s, r)
    assert sparse_arena.n_slots > feasibility._SLOT_CAPACITY
    assert sparse_arena._m > 4


def test_sparse_arena_add_rejects_a_busy_endpoint():
    radio = RadioConfig()
    positions = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0], [400.0, 0.0], [430.0, 0.0]])
    tx = np.full(5, 10 ** (12.0 / 10.0))
    sparse = sparse_gain_model(positions, tx, LogDistancePathLoss(alpha=3.0), radio)
    arena = SlotArena(sparse.interference_model(radio))
    slot = open_slot(arena, 0, 1)
    for s, r in [(1, 2), (2, 1), (0, 2), (2, 0), (0, 1)]:
        with pytest.raises(ValueError, match="shares a node"):
            arena.add(slot, s, r)
    assert arena._m == 1
    # The failed adds left no trace: a disjoint link still gets in.
    assert arena.can_add_all(3, 4).tolist() == [True]
    arena.add(slot, 3, 4)
    assert [a.tolist() for a in slot_members(arena, slot)] == [[0, 3], [1, 4]]


@pytest.mark.parametrize("candidate", [(1, 2), (2, 0)])
def test_arena_vetoes_node_sharing_even_where_no_power_says_so(candidate):
    """Member 0->1 and a candidate through node 1 (resp. 0) whose every
    cross power is zero — the diagonal included — so only the half-duplex
    rule can refuse it: the slot tables must, like the dense scan."""
    s, r = candidate
    dense = np.zeros((3, 3))
    dense[0, 1] = dense[1, 0] = dense[s, r] = dense[r, s] = 1.0
    keys = np.flatnonzero(dense.ravel() > 0)
    keys = np.union1d(keys, np.arange(3) * 3 + np.arange(3))  # stored zero diagonal
    power = SparsePowerMatrix(3, keys, dense.ravel()[keys])
    radio = RadioConfig()
    state = SlotState(PhysicalInterferenceModel(dense, radio))
    assert state.can_add(s, r)
    state.add(0, 1)
    assert not state.can_add(s, r)
    for matrix in (power, dense):
        arena = SlotArena(PhysicalInterferenceModel(matrix, radio))
        open_slot(arena, 0, 1)
        assert arena.can_add_all(s, r).tolist() == [False]
