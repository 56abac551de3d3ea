"""Scheduling substrate: links, schedules, feasibility state, the what-if
kernel, baselines."""

import numpy as np
import pytest

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.sparse import SparsePowerMatrix, sparse_gain_model
from repro.routing import aggregate_demand, build_routing_forest, planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.feasibility import (
    feasible_alone,
    infeasible_slots,
    what_if_sinrs,
)
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.linear import linear_schedule
from repro.scheduling.links import LinkSet, forest_link_set
from repro.scheduling.metrics import improvement_over_linear, verify_schedule
from repro.scheduling.orderings import (
    hashed_ids,
    order_by_demand,
    order_by_hashed_id,
    order_by_id,
    order_by_interference_number,
    order_by_length,
)
from repro.scheduling.schedule import Schedule, Slot
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from tests.conftest import SlotState, link_rates, schedule_rates, stepwise_greedy_rate


class TestLinkSet:
    def test_forest_link_set_one_link_per_non_gateway(self, grid16):
        gws = planned_gateways(4, 4, 2)
        forest = build_routing_forest(grid16.comm_adj, gws, rng=1)
        demand = np.ones(16, dtype=int)
        demand[gws] = 0
        links = forest_link_set(forest, aggregate_demand(forest, demand))
        assert links.n_links == 14
        assert set(links.heads.tolist()) == set(range(16)) - set(gws.tolist())

    def test_ids_default_to_head_indices(self, grid16_links):
        assert np.array_equal(grid16_links.ids, grid16_links.heads)

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            LinkSet(
                heads=np.array([1]),
                tails=np.array([1]),
                demand=np.array([1]),
                ids=np.array([1]),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            LinkSet(
                heads=np.array([0, 1]),
                tails=np.array([1, 2]),
                demand=np.array([1, 1]),
                ids=np.array([5, 5]),
            )

    def test_subset(self, grid16_links):
        sub = grid16_links.subset(np.array([0, 2]))
        assert sub.n_links == 2
        assert sub.heads[0] == grid16_links.heads[0]

    def test_link_of_node_lookup(self, grid16_links):
        of_node = grid16_links.link_of_node
        assert of_node[grid16_links.heads].tolist() == list(range(grid16_links.n_links))
        heads_none = np.setdiff1d(np.arange(of_node.size), grid16_links.heads)
        assert (of_node[heads_none] == -1).all()


class TestScheduleContainers:
    def test_slot_add_rejects_duplicates(self):
        slot = Slot()
        slot.add(3)
        with pytest.raises(ValueError):
            slot.add(3)

    def test_allocations_and_demand(self, grid16_links):
        schedule = linear_schedule(grid16_links)
        assert np.array_equal(schedule.allocations(), grid16_links.demand)
        assert schedule.satisfies_demand()

    def test_allocations_count_every_membership_on_random_schedules(self, grid16_links):
        """One ``bincount`` over the flattened slots ≡ the per-membership
        loop, on random schedules (empty slots and links in no slot too)."""
        rng = np.random.default_rng(17)
        n = grid16_links.n_links
        for _ in range(50):
            slots = [
                Slot(rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist())
                for _ in range(rng.integers(0, 12))
            ]
            schedule = Schedule(link_set=grid16_links, slots=slots)
            counts = np.zeros(n, dtype=np.int64)
            for slot in slots:
                for k in slot.links:
                    counts[k] += 1
            got = schedule.allocations()
            assert got.dtype == np.int64 and np.array_equal(got, counts)

    def test_concurrency_of_linear_is_one(self, grid16_links):
        schedule = linear_schedule(grid16_links)
        assert schedule.concurrency() == pytest.approx(1.0)

    def test_empty_schedule(self, grid16_links):
        schedule = Schedule(link_set=grid16_links)
        assert schedule.length == 0
        assert schedule.concurrency() == 0.0
        assert not schedule.satisfies_demand()

    def test_summary_mentions_key_figures(self, grid16_links):
        schedule = linear_schedule(grid16_links)
        text = schedule.summary()
        assert str(schedule.length) in text
        assert str(grid16_links.total_demand) in text


class TestSlotState:
    def test_matches_exact_model_incrementally(self, grid64, grid64_links):
        """SlotState.can_add must agree with full-model re-evaluation."""
        model = grid64.model
        state = SlotState(model)
        added = 0
        for k in range(grid64_links.n_links):
            s = int(grid64_links.heads[k])
            r = int(grid64_links.tails[k])
            snd, rcv = state.members()
            # Exact oracle: half-duplex sharing check + full SINR re-test.
            shares_node = bool(
                np.isin([s, r], np.concatenate([snd, rcv])).any()
            )
            exact = (
                not shares_node
                and model.is_feasible(np.append(snd, s), np.append(rcv, r))
            )
            assert state.can_add(s, r) == exact
            if exact and added < 6:
                state.add(s, r)
                added += 1
        assert model.is_feasible(*state.members())

    def test_feasible_alone_matches_graph_rule(self, grid16):
        """The standalone screen is the communication-graph edge rule, the
        verdict of an empty slot, and tightens with a budget."""
        model = grid16.model
        n = grid16.n_nodes
        snd, rcv = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        alone = feasible_alone(model, snd, rcv)
        assert np.array_equal(alone.reshape(n, n), grid16.comm_adj)
        assert alone.tolist() == [
            SlotState(model).can_add(int(s), int(r)) for s, r in zip(snd, rcv)
        ]
        # A budget at one node silences exactly the links that end there.
        budget = np.zeros(n)
        budget[5] = 1e6 * model.radio.noise_mw
        drowned = feasible_alone(model.with_budget(budget), snd, rcv)
        assert np.array_equal(drowned, alone & (snd != 5) & (rcv != 5))

    def test_try_add_only_keeps_feasible(self, grid16):
        model = grid16.model
        state = SlotState(model)
        assert state.try_add(0, 1)
        # The same sender again violates half-duplex/sharing.
        assert not state.try_add(0, 2)
        assert len(state) == 1


class TestWhatIf:
    """``set_sinrs`` and ``what_if_sinrs``: the kernel verdicts ``greedy_rate``
    and ``optimal`` admit with."""

    def test_set_sinrs_rows_are_each_sets_link_sinrs(self, grid64, grid64_links):
        model = grid64.model
        heads, tails = grid64_links.heads, grid64_links.tails
        slots = [s.as_array() for s in greedy_physical(grid64_links, model).slots[:12]]
        width = max(map(len, slots))
        valid = np.arange(width) < np.array([len(s) for s in slots])[:, None]
        members = np.zeros(valid.shape, dtype=np.intp)
        members[valid] = np.concatenate(slots)
        rows = model.set_sinrs(heads[members], tails[members], valid)
        for row, on, slot in zip(rows, valid, slots):
            np.testing.assert_array_equal(
                row[on], np.minimum(*model.link_sinrs(heads[slot], tails[slot]))
            )
            assert (row[~on] == 0.0).all()

    def test_candidates_sharing_a_node_are_dropped(self, grid16, grid16_links):
        heads, tails = grid16_links.heads, grid16_links.tails
        members = [0]
        ends = {int(heads[0]), int(tails[0])}
        candidates = np.arange(1, grid16_links.n_links)
        free, sinrs = what_if_sinrs(grid16.model, heads, tails, members, candidates)
        expected = [
            k for k in candidates if not {int(heads[k]), int(tails[k])} & ends
        ]
        assert free.tolist() == expected
        assert sinrs.shape == (len(expected), 2)

    def test_rows_are_the_members_then_the_candidate(self, grid64, grid64_links):
        model = grid64.model
        heads, tails = grid64_links.heads, grid64_links.tails
        members = greedy_physical(grid64_links, model).slots[0].links[:3]
        free, sinrs = what_if_sinrs(
            model, heads, tails, members, np.arange(grid64_links.n_links)
        )
        assert free.size
        for cand, row in zip(free, sinrs):
            idx = np.append(members, cand)
            np.testing.assert_array_equal(
                row, np.minimum(*model.link_sinrs(heads[idx], tails[idx]))
            )

    def test_no_candidates_give_an_empty_grid(self, grid16, grid16_links):
        free, sinrs = what_if_sinrs(
            grid16.model, grid16_links.heads, grid16_links.tails, [0],
            np.empty(0, dtype=np.intp),
        )
        assert free.size == 0 and sinrs.shape == (0, 2)

    @pytest.mark.parametrize("budgeted", [False, True], ids=["exact", "budgeted"])
    def test_verdicts_equal_the_scalar_oracle(self, grid64, grid64_links, budgeted):
        model = grid64.model
        if budgeted:
            budget = np.zeros(grid64.n_nodes)
            budget[::3] = 2.0 * model.radio.noise_mw
            model = model.with_budget(budget)
        heads, tails = grid64_links.heads, grid64_links.tails
        everyone = np.arange(grid64_links.n_links)
        state, members = SlotState(model), []
        for k in everyone:
            if state.try_add(int(heads[k]), int(tails[k])):
                members.append(int(k))
            if len(members) == 4:
                break
        for prefix in range(1, len(members) + 1):
            state = SlotState(model)
            for k in members[:prefix]:
                state.add(int(heads[k]), int(tails[k]))
            free, sinrs = what_if_sinrs(model, heads, tails, members[:prefix], everyone)
            admits = (sinrs >= model.radio.beta).all(axis=1)
            oracle = [state.can_add(int(heads[k]), int(tails[k])) for k in everyone]
            assert np.flatnonzero(oracle).tolist() == free[admits].tolist()

    def test_a_budget_only_lowers_sinrs(self, grid64, grid64_links):
        model = grid64.model
        budgeted = model.with_budget(np.full(grid64.n_nodes, model.radio.noise_mw))
        heads, tails = grid64_links.heads, grid64_links.tails
        members = greedy_physical(grid64_links, model).slots[0].links[:2]
        candidates = np.arange(grid64_links.n_links)
        free, exact = what_if_sinrs(model, heads, tails, members, candidates)
        same, tighter = what_if_sinrs(budgeted, heads, tails, members, candidates)
        np.testing.assert_array_equal(same, free)
        assert (tighter < exact).all()


class TestGreedyPhysical:
    def test_schedule_feasible_and_complete(self, grid64, grid64_links):
        schedule = greedy_physical(grid64_links, grid64.model)
        report = verify_schedule(schedule, grid64.model)
        assert report.ok
        assert not infeasible_slots(schedule, grid64.model)

    def test_never_longer_than_linear(self, grid64, grid64_links):
        schedule = greedy_physical(grid64_links, grid64.model)
        assert schedule.length <= grid64_links.total_demand

    def test_zero_demand_links_get_no_slots(self, grid16):
        # Nodes 1 and 4 are lattice neighbors of node 0 in the 4x4 grid.
        links = LinkSet(
            heads=np.array([1, 4]),
            tails=np.array([0, 0]),
            demand=np.array([0, 2]),
            ids=np.array([1, 4]),
        )
        schedule = greedy_physical(links, grid16.model)
        assert schedule.allocations().tolist() == [0, 2]

    def test_infeasible_link_raises(self, grid16):
        # Link between the two most distant corners cannot close alone.
        links = LinkSet(
            heads=np.array([0]),
            tails=np.array([15]),
            demand=np.array([1]),
            ids=np.array([0]),
        )
        if not grid16.comm_adj[0, 15]:
            with pytest.raises(ValueError, match="infeasible even alone"):
                greedy_physical(links, grid16.model)

    def test_custom_ordering_callable(self, grid64, grid64_links):
        reverse = lambda links, model: np.argsort(links.ids).astype(np.intp)
        schedule = greedy_physical(grid64_links, grid64.model, ordering=reverse)
        assert verify_schedule(schedule, grid64.model).ok


class TestOrderings:
    def test_order_by_id_descending(self, grid64, grid64_links):
        order = order_by_id(grid64_links, grid64.model)
        ids = grid64_links.ids[order]
        assert (np.diff(ids) < 0).all()

    def test_order_by_demand_descending(self, grid64, grid64_links):
        order = order_by_demand(grid64_links, grid64.model)
        demands = grid64_links.demand[order]
        assert (np.diff(demands) <= 0).all()

    def test_order_by_length_weakest_first(self, grid64, grid64_links):
        order = order_by_length(grid64_links, grid64.model)
        signals = grid64.model.power[
            grid64_links.heads[order], grid64_links.tails[order]
        ]
        assert (np.diff(signals) >= 0).all()

    def test_order_by_interference_number_permutation(self, grid16, grid16_links):
        order = order_by_interference_number(grid16_links, grid16.model)
        assert sorted(order.tolist()) == list(range(grid16_links.n_links))

    def test_order_by_hashed_id_is_a_permutation(self, grid64, grid64_links):
        order = order_by_hashed_id(grid64_links, grid64.model)
        assert sorted(order.tolist()) == list(range(grid64_links.n_links))
        keys = hashed_ids(grid64_links.ids[order])
        assert (keys[:-1] > keys[1:]).all()  # decreasing hashed ID
        assert not np.array_equal(order, order_by_id(grid64_links, grid64.model))

    def test_distinct_ids_get_distinct_hashes(self):
        ids = np.concatenate(
            [np.arange(1 << 16), np.random.default_rng(0).integers(0, 1 << 62, 1 << 16)]
        )
        ids = np.unique(ids)
        assert np.unique(hashed_ids(ids)).size == ids.size
        assert hashed_ids(np.array([1]))[0] == np.uint64(0x9E3779B97F4A7C15)


def _sparse_mesh(cutoff_m=None):
    """The 20x20 sparse pipeline: truncated (recipe) model by default."""
    net = grid_network(20, 20, density_per_km2=1000.0)
    sgm = sparse_gain_model(
        net.positions, net.tx_power_mw, net.propagation, net.radio, cutoff_m=cutoff_m
    )
    indptr, indices = communication_csr(
        sgm.power, net.radio.noise_mw, net.radio.beta, budget_mw=sgm.floor_mw
    )
    forest = build_routing_forest_csr(indptr, indices, planned_gateways(20, 20, 4), rng=3)
    links = forest_link_set(forest, np.ones(net.n_nodes, dtype=np.int64))
    return net, sgm, links


def _slot_lists(schedule):
    return [slot.links for slot in schedule.slots]


class TestDefaultOrdering:
    """``ordering=None`` is ``"hashed"`` where repair runs, ``"id"`` elsewhere."""

    def test_truncated_model_packs_in_hashed_order(self):
        net, sgm, links = _sparse_mesh()
        model = sgm.interference_model(net.radio)
        default = greedy_physical(links, model)
        assert default.truth is not None
        assert _slot_lists(default) == _slot_lists(
            greedy_physical(links, model, ordering="hashed")
        )
        assert _slot_lists(default) != _slot_lists(
            greedy_physical(links, model, ordering="id")
        )

    def test_truncated_model_reports_truth_without_demand(self):
        net, sgm, links = _sparse_mesh()
        idle = LinkSet(links.heads, links.tails, np.zeros_like(links.demand), links.ids)
        schedule = greedy_physical(idle, sgm.interference_model(net.radio))
        assert schedule.slots == []
        report = schedule.truth
        assert report is not None
        assert report.violations == report.repaired_tx == report.repair_rounds == 0
        assert report.margins.size == 0

    @pytest.mark.parametrize("kind", ["dense", "cutoff-inf", "hand-built"])
    def test_exact_models_pack_in_id_order(self, kind, grid64, grid64_links):
        if kind == "dense":
            links, model = grid64_links, grid64.model
        else:
            net, sgm, links = _sparse_mesh(None if kind == "hand-built" else float("inf"))
            power = sgm.power
            if kind == "hand-built":  # the truncated entries without their recipe
                power = SparsePowerMatrix(net.n_nodes, power.keys, power.entries()[2])
            model = PhysicalInterferenceModel(power, net.radio, sgm.floor_mw)
        default = greedy_physical(links, model)
        assert default.truth is None
        assert _slot_lists(default) == _slot_lists(
            greedy_physical(links, model, ordering="id")
        )


class TestMetrics:
    def test_improvement_of_linear_is_zero(self, grid16_links):
        assert improvement_over_linear(linear_schedule(grid16_links)) == 0.0

    def test_improvement_formula(self, grid64, grid64_links):
        schedule = greedy_physical(grid64_links, grid64.model)
        td = grid64_links.total_demand
        expected = 100.0 * (td - schedule.length) / td
        assert improvement_over_linear(schedule) == pytest.approx(expected)

    def test_verifier_catches_infeasible_slot(self, grid16, grid16_links):
        schedule = linear_schedule(grid16_links)
        # Jam every link into the first slot: guaranteed infeasible.
        schedule.slots[0].links = list(range(grid16_links.n_links))
        report = verify_schedule(schedule, grid16.model)
        assert not report.feasible
        assert 0 in report.infeasible_slots

    def test_verifier_catches_unmet_demand(self, grid16, grid16_links):
        schedule = linear_schedule(grid16_links)
        schedule.slots.pop()
        report = verify_schedule(schedule, grid16.model)
        assert not report.demand_satisfied
        assert report.shortfall_links

    def test_verifier_report_string(self, grid16, grid16_links):
        ok = verify_schedule(linear_schedule(grid16_links), grid16.model)
        assert "OK" in str(ok)


class TestGreedyRate:
    def table(self, beta=10.0):
        from repro.phy.radio import RateTable

        return RateTable.geometric(beta)

    def test_degenerate_table_covers_demand_in_memberships(self, grid64, grid64_links):
        from repro.phy.radio import RateTable
        from repro.scheduling.greedy_rate import greedy_rate

        table = RateTable.degenerate(grid64.model.radio.beta)
        schedule = greedy_rate(grid64_links, grid64.model, table)
        assert not infeasible_slots(schedule, grid64.model)
        # Every rate is 1, so packet capacity == membership count.
        assert schedule.satisfies_demand()

    def test_packet_capacity_covers_demand(self, grid64, grid64_links):
        from repro.scheduling.greedy_rate import greedy_rate

        table = self.table(grid64.model.radio.beta)
        schedule = greedy_rate(grid64_links, grid64.model, table)
        assert not infeasible_slots(schedule, grid64.model)
        capacity = np.zeros(grid64_links.n_links, dtype=np.int64)
        for slot, rates in zip(schedule.slots, schedule_rates(schedule, grid64.model, table)):
            for k, rate in zip(slot.links, rates):
                capacity[k] += rate
        assert (capacity >= grid64_links.demand).all()

    def test_never_longer_than_fixed_rate_greedy(self, grid64, grid64_links):
        from repro.scheduling.greedy_rate import greedy_rate

        table = self.table(grid64.model.radio.beta)
        rated = greedy_rate(grid64_links, grid64.model, table)
        fixed = greedy_physical(grid64_links, grid64.model)
        assert rated.length <= fixed.length

    def test_zero_demand_links_get_no_slots(self, grid16):
        from repro.scheduling.greedy_rate import greedy_rate

        forest = build_routing_forest(
            grid16.comm_adj, planned_gateways(4, 4, 2), rng=3
        )
        demand = np.ones(16, dtype=int)
        demand[planned_gateways(4, 4, 2)] = 0
        links = forest_link_set(forest, aggregate_demand(forest, demand))
        links = links.subset(np.arange(links.n_links))
        links.demand[0] = 0
        schedule = greedy_rate(links, grid16.model, self.table(grid16.model.radio.beta))
        assert all(0 not in slot.links for slot in schedule.slots)

    def test_standalone_rates_match_alone_evaluation(self, grid16, grid16_links):
        from repro.scheduling.greedy_rate import standalone_rates

        table = self.table(grid16.model.radio.beta)
        rates = standalone_rates(grid16_links, grid16.model, table)
        assert rates.shape == (grid16_links.n_links,)
        assert (rates >= 1).all()  # every comm edge decodes alone
        alone = link_rates(
            grid16.model, grid16_links.heads[:1], grid16_links.tails[:1], table
        )
        assert rates[0] == alone[0]

    def test_link_infeasible_alone_raises(self, grid16):
        from repro.scheduling.greedy_rate import greedy_rate

        far = np.argwhere(~grid16.comm_adj & ~np.eye(grid16.n_nodes, dtype=bool))
        head, tail = (int(v) for v in far[0])
        links = LinkSet(
            heads=np.array([head]), tails=np.array([tail]),
            demand=np.array([1]), ids=np.array([head]),
        )
        with pytest.raises(ValueError, match="infeasible even alone"):
            greedy_rate(links, grid16.model, self.table(grid16.model.radio.beta))

    def test_base_tier_above_beta_floors_instead_of_refusing(self, grid64, grid64_links):
        """A table whose tier 0 no link reaches: every member still decodes
        (SINR >= β) and is served at the base rate, so the slots are the
        single-rate ones."""
        from repro.phy.radio import RateTable
        from repro.scheduling.greedy_rate import greedy_rate

        beta = grid64.model.radio.beta
        high = RateTable(thresholds=np.array([1e9 * beta]), rates=np.array([1]))
        rated = greedy_rate(grid64_links, grid64.model, high)
        single = greedy_rate(grid64_links, grid64.model, RateTable.degenerate(beta))
        assert [s.links for s in rated.slots] == [s.links for s in single.slots]
        assert rated.satisfies_demand()

    @pytest.mark.parametrize("budgeted", [False, True], ids=["exact", "budgeted"])
    def test_slots_equal_the_stepwise_reference(self, grid64, grid64_links, budgeted):
        from repro.scheduling.greedy_rate import greedy_rate

        model = grid64.model
        if budgeted:
            budget = np.zeros(grid64.n_nodes)
            # Large enough to change the slots, small enough that every
            # link still decodes alone.
            budget[::2] = 0.15 * model.radio.noise_mw
            model = model.with_budget(budget)
        table = self.table(model.radio.beta)
        schedule = greedy_rate(grid64_links, model, table)
        if budgeted:
            exact = greedy_rate(grid64_links, grid64.model, table)
            assert [s.links for s in schedule.slots] != [s.links for s in exact.slots]
        assert [list(s.links) for s in schedule.slots] == stepwise_greedy_rate(
            grid64_links, model, table
        )
        assert not infeasible_slots(schedule, model)
