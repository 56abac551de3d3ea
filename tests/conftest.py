"""Shared fixtures: small deterministic networks and link sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.runtime import Runtime
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    uniform_node_demand,
)
from repro.scheduling.links import LinkSet, forest_link_set
from repro.topology.network import Network, grid_network, uniform_network
from repro.util.rng import spawn


@pytest.fixture(scope="session")
def grid16() -> Network:
    """A 4x4 planned grid at moderate density (deterministic)."""
    return grid_network(4, 4, density_per_km2=2000)


@pytest.fixture(scope="session")
def grid64() -> Network:
    """The paper's 8x8 planned grid at 2500 nodes/km^2."""
    return grid_network(8, 8, density_per_km2=2500)


@pytest.fixture(scope="session")
def uniform32() -> Network:
    """A 32-node unplanned network (connected by construction)."""
    return uniform_network(32, density_per_km2=3000, rng=101)


def make_links(network: Network, n_gateways: int, seed: int, demand_high: int = 3):
    """Forest link set with small demands on a given network."""
    side = int(round(np.sqrt(network.n_nodes)))
    if side * side == network.n_nodes:
        gws = planned_gateways(side, side, n_gateways)
    else:
        from repro.routing import random_gateways

        gws = random_gateways(network.n_nodes, n_gateways, spawn(seed, "gw"))
    forest = build_routing_forest(network.comm_adj, gws, rng=spawn(seed, "forest"))
    demand = uniform_node_demand(
        network.n_nodes, spawn(seed, "demand"), low=1, high=demand_high, gateways=gws
    )
    return forest, forest_link_set(forest, aggregate_demand(forest, demand))


@pytest.fixture(scope="session")
def grid16_links(grid16) -> LinkSet:
    return make_links(grid16, 1, seed=5)[1]


@pytest.fixture(scope="session")
def grid64_links(grid64) -> LinkSet:
    return make_links(grid64, 4, seed=7, demand_high=10)[1]


@pytest.fixture(scope="session")
def small_config() -> ProtocolConfig:
    """Protocol constants sized for 16-node tests."""
    return ProtocolConfig(k=5, id_bits=5)


@pytest.fixture(scope="session")
def paper_config() -> ProtocolConfig:
    """The paper's constants (Section VI-A)."""
    return ProtocolConfig(k=5, smbytes=15, id_bits=8)


class StepwiseRuntime(FastRuntime):
    """FastRuntime's primitives under the :class:`Runtime` round defaults.

    The reference the batched ``resolve_trials`` / closed-form ``elect_each``
    are differenced against: one construction step at a time, in paper
    order, on the same vectorized scream / leader_elect / handshake.
    """

    elect_each = Runtime.elect_each
    resolve_trials = Runtime.resolve_trials

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches_trials = False


# --------------------------------------------------------------------------
# Per-slot references of the rate-aware passes.  The library evaluates whole
# schedules in one batched SINR kernel and replicates greedy_rate's slots by
# run length; these are the bodies it replaced — one ``sinr_for_links`` pair
# per slot, one slot built per slot emitted — kept as the references the
# whole-path identity suite differences against.  Admission verdicts come
# from the scalar ``SlotState`` oracle only, never from the batched arena
# the library packs with.
# --------------------------------------------------------------------------


def stepwise_standalone_rates(links, model, table):
    rates = np.zeros(links.n_links, dtype=np.int64)
    for k in range(links.n_links):
        data, ack = model.link_sinrs(links.heads[k : k + 1], links.tails[k : k + 1])
        rates[k] = table.rate_for(np.minimum(data, ack))[0]
    return rates


def stepwise_greedy_rate(links, model, table):
    """``greedy_rate`` building every slot it emits; returns the slot lists."""
    from repro.scheduling.feasibility import SlotState

    alone = stepwise_standalone_rates(links, model, table)
    order = np.lexsort((-links.heads, -alone))
    residual = links.demand.astype(np.int64).copy()
    slots = []
    while residual.sum() > 0:
        state = SlotState(model)
        slot = []
        total_rate = 0
        for k in order:
            k = int(k)
            if residual[k] <= 0:
                continue
            sender, receiver = int(links.heads[k]), int(links.tails[k])
            if len(state) == 0:
                if not state.can_add(sender, receiver):
                    raise ValueError(
                        f"link {sender}->{receiver} is infeasible even alone; "
                        "it is not a valid communication edge"
                    )
            elif not state.can_add(sender, receiver):
                continue
            snd, rcv = state.members()
            candidate = int(
                model.link_rates(
                    np.append(snd, sender), np.append(rcv, receiver), table
                ).sum()
            )
            if candidate <= total_rate:
                continue
            state.add(sender, receiver)
            slot.append(k)
            total_rate = candidate
        for k, rate in zip(slot, model.link_rates(*state.members(), table)):
            residual[k] = max(0, residual[k] - int(rate))
        slots.append(slot)
    return slots


def stepwise_patch_schedule(cached, links, model, max_length=None, table=None):
    """``patch_schedule`` reading every rate slot by slot and every grant
    after its insertion; returns the slot lists, or ``None``."""
    from repro.scheduling.feasibility import SlotState

    demand = np.asarray(links.demand, dtype=np.int64)
    if table is None:
        cached_rates = [np.ones(len(slot), dtype=np.int64) for slot in cached.slots]
    else:
        cached_rates = [
            model.link_rates(links.heads[slot.links], links.tails[slot.links], table)
            if len(slot)
            else np.empty(0, dtype=np.int64)
            for slot in cached.slots
        ]

    keep_budget = demand.copy()
    states, slots = [], []
    allocated = np.zeros(links.n_links, dtype=np.int64)
    for slot, slot_rates in zip(cached.slots, cached_rates):
        kept = [
            (k, int(rate))
            for k, rate in zip(slot.links, slot_rates)
            if keep_budget[k] > 0
        ]
        if not kept:
            continue
        state = SlotState(model)
        for k, rate in kept:
            state.add(int(links.heads[k]), int(links.tails[k]))
            keep_budget[k] -= rate
            allocated[k] += rate
        states.append(state)
        slots.append([k for k, _ in kept])

    def open_fresh_slot(k, sender, receiver):
        state = SlotState(model)
        if not state.try_add(sender, receiver):
            return None
        states.append(state)
        slots.append([k])
        return 1 if table is None else int(model.link_rates(*state.members(), table)[0])

    deficit = demand - allocated
    for k in sorted(np.flatnonzero(deficit > 0), key=lambda k: -int(deficit[k])):
        k = int(k)
        sender, receiver = int(links.heads[k]), int(links.tails[k])
        remaining = int(deficit[k])
        if states:
            for j in np.flatnonzero([st.can_add(sender, receiver) for st in states]):
                if remaining <= 0:
                    break
                states[j].add(sender, receiver)
                slots[j].append(k)
                remaining -= (
                    1
                    if table is None
                    else int(model.link_rates(*states[j].members(), table)[-1])
                )
        while remaining > 0:
            granted = open_fresh_slot(k, sender, receiver)
            if granted is None:
                return None
            remaining -= granted
            if max_length is not None and len(slots) > max_length:
                return None

    if table is not None:
        capacity = np.zeros(links.n_links, dtype=np.int64)
        for state, slot in zip(states, slots):
            for k, rate in zip(slot, model.link_rates(*state.members(), table)):
                capacity[k] += int(rate)
        shortfall = demand - capacity
        for k in sorted(np.flatnonzero(shortfall > 0), key=lambda k: -int(shortfall[k])):
            k = int(k)
            sender, receiver = int(links.heads[k]), int(links.tails[k])
            remaining = int(shortfall[k])
            while remaining > 0:
                granted = open_fresh_slot(k, sender, receiver)
                if granted is None:
                    return None
                remaining -= granted
                if max_length is not None and len(slots) > max_length:
                    return None

    if max_length is not None and len(slots) > max_length:
        return None
    return slots


class StepwiseRateAnnotator:
    """``RateAnnotator`` evaluating one slot's SINR at a time."""

    def __init__(self, links, model, table):
        self.table = table
        self._model = model
        self._heads = links.heads
        self._tails = links.tails
        self._prev = np.full(links.n_links, -1, dtype=np.int64)

    def annotate(self, slot_links):
        tiers, rates = [], []
        for idx in slot_links:
            if idx.size == 0:
                t = np.empty(0, dtype=np.int64)
            else:
                data, ack = self._model.link_sinrs(self._heads[idx], self._tails[idx])
                selected = self.table.select(np.minimum(data, ack), self._prev[idx])
                t = np.maximum(selected, 0)
                self._prev[idx] = t
            tiers.append(t)
            rates.append(self.table.rates[t])
        return tiers, rates


# --------------------------------------------------------------------------
# Loop references of the sparse set-up path.  The library harvests near
# pairs in one half-plane pass over the cell-sorted nodes, assembles the
# power matrix from one gain per unordered pair, and draws every forest
# parent in one ``generator.integers`` call; these are the bodies that
# replaced — a Python loop over occupied cells joining each against its
# full stencil, a second position gather and an argsort of the directed
# pair list, and one ``generator.choice`` per node — kept as the references
# the set-up differential suite compares keys, values, parents and the
# generator's post-state against.
# --------------------------------------------------------------------------


def stencil_pairs_within(positions, cell_size, radius):
    """Ordered pairs within ``radius``, lexsorted — by full-stencil cell loop.

    Also returns how many candidate pairs the distance test examined (the
    count the harvest's candidate guard is measured against).
    """
    pos = np.asarray(positions, dtype=float)
    cells = np.floor(pos / cell_size).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for node, (cx, cy) in enumerate(cells.tolist()):
        buckets.setdefault((cx, cy), []).append(node)
    occupied = sorted(buckets)
    xs = [c[0] for c in occupied]
    ys = [c[1] for c in occupied]
    # The stencil never needs to leave the occupied bounding box.
    reach = int(min(np.ceil(radius / cell_size), max(max(xs) - min(xs), max(ys) - min(ys))))
    r2 = radius * radius
    heads, tails, examined = [], [], 0
    for cx, cy in occupied:
        left = np.asarray(buckets[(cx, cy)], dtype=np.intp)
        runs = [
            buckets[(cx + dx, cy + dy)]
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
            if (cx + dx, cy + dy) in buckets
        ]
        cand = np.concatenate([np.asarray(r, dtype=np.intp) for r in runs])
        li = np.repeat(left, cand.size)
        rj = np.tile(cand, left.size)
        examined += li.size
        deltas = pos[li] - pos[rj]
        near = (np.einsum("ij,ij->i", deltas, deltas) <= r2) & (li != rj)
        heads.append(li[near])
        tails.append(rj[near])
    i = np.concatenate(heads)
    j = np.concatenate(tails)
    order = np.lexsort((j, i))
    return i[order], j[order], examined


def stencil_build_sparse_power(positions, tx_power_mw, model, cutoff_m, cell_size=None):
    """``build_sparse_power`` from the directed pair list, as it was."""
    from repro.phy.sparse import SparsePowerMatrix

    pos = np.asarray(positions, dtype=float)
    tx = np.asarray(tx_power_mw, dtype=float)
    n = pos.shape[0]
    if np.isinf(cutoff_m):
        heads = np.repeat(np.arange(n, dtype=np.intp), n)
        tails = np.tile(np.arange(n, dtype=np.intp), n)
        off = heads != tails
        heads, tails = heads[off], tails[off]
    else:
        heads, tails, _ = stencil_pairs_within(
            pos, cutoff_m if cell_size is None else cell_size, cutoff_m
        )
    dist = np.sqrt(((pos[heads] - pos[tails]) ** 2).sum(axis=1))
    keys = np.concatenate(
        [
            heads.astype(np.int64) * n + tails,
            np.arange(n, dtype=np.int64) * n + np.arange(n, dtype=np.int64),
        ]
    )
    vals = np.concatenate([tx[heads] * model.gain(dist), tx * model.gain(np.zeros(n))])
    order = np.argsort(keys)
    return SparsePowerMatrix(n, keys[order], vals[order])


def loop_routing_forest_csr(indptr, indices, gateways, generator):
    """``build_routing_forest_csr`` with one ``generator.choice`` per node."""
    from repro.routing.forest import RoutingForest

    n = indptr.shape[0] - 1
    gws = np.asarray(gateways, dtype=np.intp)
    depth = np.full(n, -1, dtype=np.intp)
    depth[gws] = 0
    frontier = np.unique(gws)
    level = 0
    while frontier.size:
        spans = [indices[indptr[v] : indptr[v + 1]] for v in frontier]
        reached = np.unique(np.concatenate(spans))
        reached = reached[depth[reached] < 0]
        level += 1
        depth[reached] = level
        frontier = reached
    if np.any(depth < 0):
        raise ValueError("some node cannot reach any gateway")
    parent = np.full(n, -1, dtype=np.intp)
    for v in range(n):
        if depth[v] == 0:
            continue
        neigh = indices[indptr[v] : indptr[v + 1]]
        candidates = neigh[depth[neigh] == depth[v] - 1]
        parent[v] = int(generator.choice(candidates))
    return RoutingForest(parent=parent, depth=depth, gateways=np.sort(gws))


def serial_pack(links, model, demanded, demand, new_arena=None):
    """``greedy_physical._pack`` one link at a time: a verdict per open slot,
    the first ``demand[k]`` admitting slots, fresh singletons for the rest.
    The loop the sparse packer ran before it admitted links a wave at a
    time, kept as its oracle (on the one-candidate arena kernel, which the
    arena suite pins to ``SlotState``)."""
    from repro.scheduling.feasibility import SlotArena
    from repro.scheduling.schedule import Slot

    arena = (new_arena or SlotArena)(model)
    slots = []
    for k in np.asarray(demanded).tolist():
        remaining = int(demand[k])
        sender, receiver = int(links.heads[k]), int(links.tails[k])
        if remaining > 0 and arena.n_slots:
            for j in np.flatnonzero(arena.can_add_all(sender, receiver))[:remaining]:
                arena.add(int(j), sender, receiver)
                slots[j].add(k)
                remaining -= 1
        for _ in range(remaining):
            arena.open_slot(sender, receiver)
            slots.append(Slot(links=[k]))
    return slots


# --------------------------------------------------------------------------
# Brute-force oracle of the serving kernel.  ``LinkQueues.play`` serves a
# whole epoch level by level in closed form; this is the definition it must
# equal: one deque of packets per link, one slot at a time, pop every
# transmission of the slot first and push the relays after.
# --------------------------------------------------------------------------


class SlotwiseQueues:
    """``LinkQueues`` by definition: per-link deques of ``(birth, source)``
    packets, served slot by slot (counters and delivery log as the
    library's; malformed input is the library's business, not the oracle's)."""

    def __init__(self, links):
        from collections import deque

        by_head = {int(h): k for k, h in enumerate(links.heads)}
        self.n_links = links.n_links
        self.by_head = by_head
        self.next_link = [by_head.get(int(t), -1) for t in links.tails]
        self.fifo = [deque() for _ in range(links.n_links)]
        self.served_by_link = np.zeros(links.n_links, dtype=np.int64)
        self.arrivals_total = self.delivered_total = 0
        self.served_total = self.plays_total = 0
        self.delays, self.births, self.sources = [], [], []

    @property
    def backlog(self):
        return np.array([len(fifo) for fifo in self.fifo], dtype=np.int64)

    def arrive(self, node_arrivals, time):
        for node in np.flatnonzero(node_arrivals):
            k = self.by_head[int(node)]
            self.fifo[k].extend([(int(time), k)] * int(node_arrivals[node]))
            self.arrivals_total += int(node_arrivals[node])

    def serve_slot(self, link_indices, time, rates=None):
        moves = []
        for position, k in enumerate(int(k) for k in link_indices):
            rate = 1 if rates is None else int(rates[position])
            count = min(rate, len(self.fifo[k]))
            moves += [(self.next_link[k], *self.fifo[k].popleft()) for _ in range(count)]
            self.served_by_link[k] += count
            self.plays_total += count > 0
        for nxt, birth, source in moves:
            if nxt >= 0:
                self.fifo[nxt].append((birth, source))
                continue
            self.delivered_total += 1
            self.delays.append(int(time) - birth + 1)
            self.births.append(birth)
            self.sources.append(source)
        self.served_total += len(moves)
        return len(moves)

    def play(self, slot_links, start, epoch_slots, overhead_slots, slot_rates=None):
        served = 0
        for t in range(overhead_slots, epoch_slots if slot_links else 0):
            i = (t - overhead_slots) % len(slot_links)
            served += self.serve_slot(
                slot_links[i], start + t, None if slot_rates is None else slot_rates[i]
            )
        return served
