"""Shared fixtures: small deterministic networks and link sets."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.runtime import Runtime
from repro.phy.interference import PhysicalInterferenceModel
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    uniform_node_demand,
)
from repro.scheduling.links import LinkSet, forest_link_set
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig, heterogeneous_tx_power
from repro.topology.deployment import uniform_positions
from repro.topology.network import Network, grid_network, uniform_network
from repro.topology.regions import SquareRegion
from repro.traffic import incremental
from repro.traffic.generators import TrafficGenerator
from repro.util.rng import ensure_rng, spawn


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


def uniform_draw(n: int, density_per_km2: float, seed: int) -> Network:
    """``uniform_network``'s first draw, kept whether it is connected or
    not: the deployments whose links cannot all decode alone."""
    generator = ensure_rng(seed)
    radio = RadioConfig()
    region = SquareRegion.for_density(n, density_per_km2)
    positions = uniform_positions(n, region, generator)
    tx = heterogeneous_tx_power(n, generator)
    return Network(positions, tx, radio, LogDistancePathLoss(alpha=radio.alpha), region)


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
        network.n_nodes, spawn(seed, "demand"), high=demand_high, gateways=gws
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

    The reference the batched ``resolve_trials`` and FDD's closed form
    (``run_by_theorem4``) are differenced against: one construction step at
    a time, in paper order, on the same vectorized scream / leader_elect /
    handshake.  Steps that do not batch name no ``theorem4_model`` either.
    """

    resolve_trials = Runtime.resolve_trials

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches_trials = False


# --------------------------------------------------------------------------
# The scalar slot-admission oracle.  The library judges a what-if with the
# batched SINR kernel (``what_if_sinrs``) and keeps per-member sums across
# admissions in ``SlotArena``; this is the one-slot, one-candidate Python
# loop both are differenced against.
# --------------------------------------------------------------------------


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


def interference_sums(arena):
    """A ``SlotArena``'s member data / ACK interference-sum columns, by
    member row: the dense arena's ``_di`` / ``_ai``, the two sides of the
    sparse arena's stacked ``_interf``."""
    if arena._use_sparse:
        return tuple(arena._interf)
    return arena._di, arena._ai


def slot_rows(arena, slot):
    """A ``SlotArena`` slot's member rows, in admission order."""
    return np.flatnonzero(arena._slot_id[: arena._m] == slot)


def slot_members(arena, slot):
    """A ``SlotArena`` slot's ``(senders, receivers)``, in admission order."""
    rows = slot_rows(arena, slot)
    return arena._msnd[rows], arena._mrcv[rows]


def open_slot(arena, sender, receiver):
    """Append a fresh ``SlotArena`` slot holding one member; return its
    index.  Untested, like :meth:`SlotArena.seed`: screen with
    ``feasible_alone`` first."""
    j = arena.n_slots
    arena.seed([j], [sender], [receiver])
    return j


# --------------------------------------------------------------------------
# Small references the suites read the library against.
# --------------------------------------------------------------------------


def scream_exact(inputs):
    """The idealized SCREAM outcome: every node learns ``OR(inputs)`` (valid
    when ``K >= ID(GS)`` and carrier sensing is error-free)."""
    arr = np.asarray(inputs, dtype=bool)
    return np.full(arr.shape, bool(arr.any()))


def scream_reach_exactly(sens_hop_distance, inputs, k):
    """Closed-form fault-free flood from hop distances: node ``v`` ends true
    iff some true source lies within ``k`` directed hops."""
    dist = np.asarray(sens_hop_distance, dtype=float)
    src = np.asarray(inputs, dtype=bool)
    if not src.any():
        return np.zeros_like(src)
    return (dist[src].min(axis=0) <= k) | src


@contextmanager
def drift_threshold(value: float):
    """``ScheduleCache``'s base drift threshold (``DRIFT_THRESHOLD``) set
    to ``value`` inside the block: 0 makes a cache that reuses only
    identical snapshots, a large value one that reuses every schedule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "DRIFT_THRESHOLD", value)
        yield


class ConstantBitRate(TrafficGenerator):
    """Deterministic fluid arrivals: node ``v`` has emitted
    ``floor(rate[v] * t)`` packets after ``t`` slots."""

    def arrivals(self, epoch, n_slots):
        start, end = epoch * n_slots, (epoch + 1) * n_slots
        return (np.floor(self.rates * end) - np.floor(self.rates * start)).astype(np.int64)


class BufferRecorder:
    """A span recorder that keeps every closed span in memory."""

    def __init__(self):
        self.spans = []

    def record_span(self, span):
        self.spans.append(span)


def metric(registry, name, **labels):
    """The exported row of one ``MetricsRegistry`` series, ``None`` when it
    was never booked."""
    want = {key: str(value) for key, value in labels.items()}
    return next(
        (row for row in registry.rows() if row["name"] == name and row["labels"] == want),
        None,
    )


def counter_value(registry, name, **labels):
    """A counter series' value (0.0 when it was never booked)."""
    row = metric(registry, name, **labels)
    return 0.0 if row is None else row["value"]


def ledger_counts(ledger, layer):
    """``{(epoch, message class): count}`` a ``ControlLedger`` holds for
    ``layer``."""
    return {
        (epoch, cls): count
        for epoch, bucket in ledger._counts.items()
        for (lay, cls), count in bucket.items()
        if lay == layer
    }


def schedule_rates(schedule, model, table):
    """Per-slot packets-per-slot arrays (member order) under ``table``,
    stateless: each member's grant at its slot's ``min(data, ACK)`` SINR."""
    links = schedule.link_set
    slots = [s.links for s in schedule.slots]
    return [table.grant(worst) for worst in model.slot_sinrs(links.heads, links.tails, slots)]


def serve_slot(queues, link_indices, time, rates=None):
    """Serve one slot: ``LinkQueues.play`` over a one-slot round at ``time``."""
    return queues.play(link_indices, [len(link_indices)], time, 1, 0, rates)


# --------------------------------------------------------------------------
# Per-slot references of the rate-aware passes.  The library evaluates whole
# schedules in one batched SINR kernel and replicates greedy_rate's slots by
# run length; these are the bodies it replaced — one ``sinr_for_links`` pair
# per slot, one slot built per slot emitted — kept as the references the
# whole-path identity suite differences against.  Admission verdicts come
# from the scalar ``SlotState`` oracle only, never from the what-if kernel
# or the arena the library packs with.
# --------------------------------------------------------------------------


def link_rates(model, senders, receivers, table):
    """Per-set rate oracle: each member's grant at its ``min(data, ACK)``
    SINR when exactly ``senders -> receivers`` transmit."""
    return table.grant(np.minimum(*model.link_sinrs(senders, receivers)))


def stepwise_standalone_rates(links, model, table):
    rates = np.zeros(links.n_links, dtype=np.int64)
    for k in range(links.n_links):
        data, ack = model.link_sinrs(links.heads[k : k + 1], links.tails[k : k + 1])
        rates[k] = table.rate_for(np.minimum(data, ack))[0]
    return rates


def stepwise_greedy_rate(links, model, table):
    """``greedy_rate`` building every slot it emits; returns the slot lists."""
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
                link_rates(
                    model, np.append(snd, sender), np.append(rcv, receiver), table
                ).sum()
            )
            if candidate <= total_rate:
                continue
            state.add(sender, receiver)
            slot.append(k)
            total_rate = candidate
        for k, rate in zip(slot, link_rates(model, *state.members(), table)):
            residual[k] = max(0, residual[k] - int(rate))
        slots.append(slot)
    return slots


def stepwise_patch_schedule(cached, links, model, max_length=None, table=None):
    """``patch_schedule`` reading every rate slot by slot and every grant
    after its insertion; returns the slot lists, or ``None``."""
    demand = np.asarray(links.demand, dtype=np.int64)
    if table is None:
        cached_rates = [np.ones(len(slot), dtype=np.int64) for slot in cached.slots]
    else:
        cached_rates = [
            link_rates(model, links.heads[slot.links], links.tails[slot.links], table)
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
        return 1 if table is None else int(link_rates(model, *state.members(), table)[0])

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
                    else int(link_rates(model, *states[j].members(), table)[-1])
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
            for k, rate in zip(slot, link_rates(model, *state.members(), table)):
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
# Loop reference of the forest draw.  The library draws every forest parent
# in one ``generator.integers`` call; this is the body it replaced — one
# ``generator.choice`` per node — kept as the reference the set-up
# differential suite compares parents and the generator's post-state against.
# --------------------------------------------------------------------------


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
    """``greedy_physical.first_fit_pack`` one link at a time: a verdict per
    open slot, the first ``demand[k]`` admitting slots, fresh singletons for
    the rest.
    The loop the sparse packer ran before it admitted links a wave at a
    time, kept as its oracle.  On a sparse model it runs the batched arena
    kernel one link per call (``can_add_all`` / ``add`` / :func:`open_slot`),
    whose verdicts ``tests/property/test_scheduling_properties.py`` pins to
    ``SlotState`` (sparse ≡ dense ≡ ``SlotState`` after every step)."""
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
            open_slot(arena, sender, receiver)
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
