"""Exact optimal scheduler: enumeration soundness and optimality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.gain import distance_matrix, received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.links import LinkSet
from repro.scheduling.metrics import verify_schedule
from repro.scheduling.optimal import (
    MAX_LINKS,
    enumerate_maximal_feasible_sets,
    optimal_schedule,
)
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    uniform_node_demand,
)
from repro.scheduling import forest_link_set
from repro.topology.network import grid_network
from repro.util.rng import spawn
from tests.conftest import SlotState


@pytest.fixture(scope="module")
def sparse4x4():
    """4x4 grid, low density: genuine spatial reuse exists."""
    return grid_network(4, 4, density_per_km2=800.0)


@pytest.fixture(scope="module")
def sparse_links(sparse4x4):
    gws = planned_gateways(4, 4, 1)
    forest = build_routing_forest(sparse4x4.comm_adj, gws, rng=spawn(2, "f"))
    demand = uniform_node_demand(16, spawn(2, "d"), low=1, high=3, gateways=gws)
    return forest_link_set(forest, aggregate_demand(forest, demand))


class TestEnumeration:
    def test_all_sets_feasible_and_maximal(self, sparse4x4, sparse_links):
        sets = enumerate_maximal_feasible_sets(sparse_links, sparse4x4.model)
        assert sets
        heads, tails = sparse_links.heads, sparse_links.tails
        for s in sets:
            idx = np.array(sorted(s), dtype=np.intp)
            assert sparse4x4.model.is_feasible(heads[idx], tails[idx])
        for s in sets:
            for other in sets:
                assert not (s < other)

    def test_every_link_covered(self, sparse4x4, sparse_links):
        sets = enumerate_maximal_feasible_sets(sparse_links, sparse4x4.model)
        covered = set().union(*sets)
        assert covered == set(range(sparse_links.n_links))

    def test_oversized_instance_rejected(self, grid64, grid64_links):
        assert grid64_links.n_links > MAX_LINKS
        with pytest.raises(ValueError, match="too large"):
            enumerate_maximal_feasible_sets(grid64_links, grid64.model)


class TestOptimal:
    def test_optimal_is_feasible_and_complete(self, sparse4x4, sparse_links):
        result = optimal_schedule(sparse_links, sparse4x4.model)
        assert verify_schedule(result.schedule, sparse4x4.model).ok

    def test_optimal_never_beats_lower_bounds(self, sparse4x4, sparse_links):
        result = optimal_schedule(sparse_links, sparse4x4.model)
        assert result.schedule.length >= int(sparse_links.demand.max())

    def test_greedy_at_least_optimal(self, sparse4x4, sparse_links):
        result = optimal_schedule(sparse_links, sparse4x4.model)
        greedy = greedy_physical(sparse_links, sparse4x4.model)
        assert greedy.length >= result.schedule.length

    def test_serialized_instance_exact(self, grid16):
        """When every pair conflicts, the optimum is exactly TD."""
        # 3 links sharing the receiver conflict pairwise.
        links = LinkSet(
            heads=np.array([1, 4, 5]),
            tails=np.array([0, 0, 0]),
            demand=np.array([2, 1, 3]),
            ids=np.array([1, 4, 5]),
        )
        result = optimal_schedule(links, grid16.model)
        assert result.schedule.length == 6

    def test_empty_demand(self, sparse4x4, sparse_links):
        empty = LinkSet(
            heads=sparse_links.heads,
            tails=sparse_links.tails,
            demand=np.zeros_like(sparse_links.demand),
            ids=sparse_links.ids,
        )
        result = optimal_schedule(empty, sparse4x4.model)
        assert result.schedule.length == 0

    def test_optimal_matches_brute_force_on_tiny_instance(self, grid16):
        """Cross-check against exhaustive search over slot assignments."""
        links = LinkSet(
            heads=np.array([1, 4, 11, 14]),
            tails=np.array([0, 0, 15, 15]),
            demand=np.array([1, 1, 1, 1]),
            ids=np.array([1, 4, 11, 14]),
        )
        result = optimal_schedule(links, grid16.model)

        # Brute force: try all partitions of the 4 links into <= 4 slots.
        from itertools import product

        def partition_feasible(assignment):
            slots = {}
            for k, slot in enumerate(assignment):
                slots.setdefault(slot, []).append(k)
            for members in slots.values():
                idx = np.array(members, dtype=np.intp)
                if not grid16.model.is_feasible(links.heads[idx], links.tails[idx]):
                    return None
            return len(slots)

        best = min(
            length
            for assignment in product(range(4), repeat=4)
            if (length := partition_feasible(assignment)) is not None
        )
        assert result.schedule.length == best


def slotstate_maximal_sets(links, model):
    """The enumeration on the scalar oracle: one ``SlotState`` re-seeded per
    search node, one ``can_add`` per later link."""
    heads, tails = links.heads.tolist(), links.tails.tolist()
    found = []

    def extend(chosen, start):
        state = SlotState(model)
        for c in chosen:
            state.add(heads[c], tails[c])
        admitted = [k for k in range(start, links.n_links) if state.can_add(heads[k], tails[k])]
        for k in admitted:
            extend(chosen + [k], k + 1)
        if not admitted and chosen:
            found.append(frozenset(chosen))

    extend([], 0)
    maximal = [s for s in found if not any(s < other for other in found)]
    return sorted(set(maximal), key=lambda s: (-len(s), sorted(s)))


@st.composite
def small_instance(draw):
    """6–12 links inside clusters of 2–4 nodes: endpoints are often shared
    (same sender, same receiver, a receiver that also sends), and clusters
    far enough apart to reuse a slot sit beside ones that interfere;
    optionally budgeted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sizes = rng.integers(2, 5, size=draw(st.integers(2, 5)))
    side = draw(st.floats(100.0, 600.0))
    centres = np.repeat(rng.uniform(0.0, side, size=(sizes.size, 2)), sizes, axis=0)
    positions = centres + rng.uniform(-20.0, 20.0, size=centres.shape)
    n_nodes = len(positions)
    radio = RadioConfig()
    power = received_power_matrix(
        positions, np.full(n_nodes, 31.6), LogDistancePathLoss(alpha=radio.alpha)
    )
    model = PhysicalInterferenceModel(power, radio)
    if draw(st.booleans()):
        model = model.with_budget(rng.random(n_nodes) * radio.noise_mw * 3)
    n_links = draw(st.integers(6, 12))
    # Each link to one of its head's three nearest nodes: short links, and
    # neighbours picked again and again.
    heads = rng.integers(n_nodes, size=n_links)
    nearest = np.argsort(distance_matrix(positions), axis=1)
    tails = nearest[heads, 1 + rng.integers(3, size=n_links)]
    links = LinkSet(
        heads=heads, tails=tails, demand=np.ones(n_links, dtype=np.int64), ids=np.arange(n_links)
    )
    return links, model


@given(small_instance())
@settings(max_examples=80, deadline=None)
def test_kernel_enumeration_equals_the_scalar_oracle(instance):
    """The what-if kernel judges every search node exactly as the scalar
    ``SlotState`` walk does: the same maximal feasible sets, in order."""
    links, model = instance
    assert enumerate_maximal_feasible_sets(links, model) == slotstate_maximal_sets(links, model)
