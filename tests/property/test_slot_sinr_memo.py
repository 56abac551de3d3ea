"""SINR reuse: a remembered slot is a fresh evaluation, bit for bit.

``SlotSinrMemo`` keys ``min(data, ACK)`` SINRs by a slot's ordered member
tuple; a run builds one and hands it to its ``RateAnnotator`` and, when
both judge slots under the same model, to its patch cache, so each
distinct slot is evaluated once per run.  Reuse is exact because a slot's
row of the batched kernel equals the one-slot kernel whatever else shares
the batch — so an entry first computed in a wide batch must equal a fresh
call on that slot alone; a one-member slot is its link's standalone SINR
and never reaches the kernel; the key is the *ordered* tuple, the memo
belongs to one model, and past ``MEMO_SLOTS`` entries it forgets the
oldest.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import interference
from repro.phy.interference import PhysicalInterferenceModel, SlotSinrMemo
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig, RateTable
from repro.phy.sparse import sparse_gain_model
from repro.scheduling.greedy_rate import greedy_rate
from repro.topology.network import uniform_network
from repro.traffic.epoch import EpochConfig, EpochSchedule, RateAnnotator, run_epochs
from repro.traffic.generators import PoissonArrivals
from repro.traffic import incremental
from repro.traffic.incremental import ScheduleCache, patch_schedule
from repro.util.ranges import join
from tests.conftest import drift_threshold, make_links


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


class Counting:
    """Counts the slots and members every ``_slot_sinrs_flat`` call gets."""

    def __init__(self, monkeypatch):
        self.slots = self.members = 0
        flat = PhysicalInterferenceModel._slot_sinrs_flat

        def counted(model, heads, tails, slots):
            self.slots += len(slots)
            self.members += sum(map(len, slots))
            return flat(model, heads, tails, slots)

        monkeypatch.setattr(PhysicalInterferenceModel, "_slot_sinrs_flat", counted)


@st.composite
def memo_instance(draw):
    """A model (dense, sparse, value-dense sparse; budgeted or not), random
    links on it, and two batches of slots of 1-6 links sharing some slots."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(["dense", "sparse", "value-dense"]))
    budgeted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    n = 30
    radio = RadioConfig()
    sparse = sparse_gain_model(
        rng.uniform(0, np.sqrt(n) * 45.0, size=(n, 2)),
        10 ** (12.0 / 10.0) * rng.uniform(0.5, 1.5, size=n),
        LogDistancePathLoss(alpha=3.0),
        radio,
        cutoff_m=math.inf if kind == "value-dense" else 150.0,
    )
    power = sparse.power.toarray() if kind == "dense" else sparse.power
    budget = rng.uniform(0.0, 2.0 * radio.noise_mw, size=n) if budgeted else None
    model = PhysicalInterferenceModel(power, radio, budget)
    heads, tails = rng.integers(0, n, size=(2, 40))
    tails = np.where(tails == heads, (tails + 1) % n, tails)

    def batch(size):
        return [
            tuple(rng.choice(40, size=int(rng.integers(1, 7)), replace=False).tolist())
            for _ in range(size)
        ]

    first = batch(draw(st.integers(min_value=1, max_value=12)))
    shared = [first[i] for i in rng.permutation(len(first))[: rng.integers(0, len(first) + 1)]]
    second = batch(draw(st.integers(min_value=0, max_value=6))) + shared
    second += [(int(k),) for k in rng.integers(0, 40, size=2)]  # singletons
    rng.shuffle(second)
    return model, heads, tails, first, second


@given(memo_instance())
@settings(max_examples=80, deadline=None)
def test_reused_entries_are_bitwise_fresh_evaluations(instance):
    """Slots first seen in one batch and read again from another (of a
    different width) hold exactly what a one-slot call returns."""
    model, heads, tails, first, second = instance
    memo = SlotSinrMemo(model, heads, tails)
    memo(first)
    for key, worst in zip(second, memo(second)):
        fresh = model.slot_sinrs(heads, tails, [list(key)])[0]
        assert bits(worst) == bits(fresh)
        data, ack = model.link_sinrs(heads[list(key)], tails[list(key)])
        assert bits(worst) == bits(np.minimum(data, ack))


def test_each_distinct_slot_is_evaluated_once_and_reordering_misses(monkeypatch):
    network = uniform_network(40, density_per_km2=600, rng=3)
    _, links = make_links(network, 2, seed=23)
    counted = Counting(monkeypatch)
    memo = SlotSinrMemo(network.model, links.heads, links.tails)
    memo([(0, 5), (0, 5), (7,)])
    assert (counted.slots, counted.members) == (1, 2)  # duplicates once, singletons never
    memo([(7,), (0, 5)])
    assert (counted.slots, counted.members) == (1, 2)  # all remembered
    reordered = memo([(5, 0)])[0]
    assert (counted.slots, counted.members) == (2, 4)  # another key
    assert bits(reordered) == bits(network.model.slot_sinrs(links.heads, links.tails, [[5, 0]])[0])


def test_one_member_slots_read_the_standalone_sinrs(monkeypatch):
    """Every link's lone slot, read from the memo without a kernel call,
    is what the batched kernel gives it in any batch, bit for bit."""
    network = uniform_network(40, density_per_km2=600, rng=3)
    _, links = make_links(network, 2, seed=23)
    model = network.model.with_budget(np.full(network.n_nodes, network.radio.noise_mw))
    memo = SlotSinrMemo(model, links.heads, links.tails)
    lone = [(k,) for k in range(links.n_links)]
    mixed = lone + [(0, 5), (3, 9, 12)]  # singletons padded to width 3
    fresh = model.slot_sinrs(links.heads, links.tails, mixed)[: links.n_links]
    counted = Counting(monkeypatch)
    assert [bits(v) for v in memo(lone)] == [bits(v) for v in fresh]
    assert counted.slots == 0 and not memo._seen


def test_a_budgeted_model_never_reads_another_models_entries(monkeypatch):
    network = uniform_network(40, density_per_km2=600, rng=3)
    _, links = make_links(network, 2, seed=23)
    budget = np.random.default_rng(5).random(network.n_nodes) * network.radio.noise_mw
    budgeted = network.model.with_budget(budget)
    keys = [(0, 5), (7, 2), (3, 9, 12)]
    exact = SlotSinrMemo(network.model, links.heads, links.tails)
    first = exact(keys)
    counted = Counting(monkeypatch)
    guarded = SlotSinrMemo(budgeted, links.heads, links.tails)
    second = guarded(keys)
    assert counted.slots == len(keys)  # nothing shared between the two memos
    fresh = budgeted.slot_sinrs(links.heads, links.tails, [list(key) for key in keys])
    assert all(bits(a) == bits(b) for a, b in zip(second, fresh))
    assert any((a > b).any() for a, b in zip(first, second))  # budgets cost SINR


@pytest.fixture(scope="module")
def mesh():
    network = uniform_network(40, density_per_km2=600, rng=3)
    return network, make_links(network, 2, seed=23)[1]


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([None, 50]),
    st.sampled_from([4, interference.MEMO_SLOTS]),
)
@settings(max_examples=25, deadline=None)
def test_cache_patches_equal_fresh_patches_and_memo_stays_bounded(
    mesh, seed, max_length, memo_slots
):
    """A patch-policy cache reused across many drifting epochs patches
    exactly what a fresh ``patch_schedule`` of its cached schedule gives,
    whether its memo remembers everything or forgets all but four slots,
    and the memo never holds more than its bound or one call's slots."""
    network, links = mesh
    model = network.model
    table = RateTable.geometric(network.radio.beta)
    rng = np.random.default_rng(seed)

    def scheduler(demand_links, epoch):
        return EpochSchedule(greedy_rate(demand_links, model, table))

    cache = ScheduleCache(
        scheduler,
        policy="patch",
        model=model,
        epoch_slots=max_length,
        rate_table=table,
    )
    demand = np.minimum(links.demand, 4)
    asked = [0]  # distinct slots per memo call
    read = SlotSinrMemo.__call__
    with pytest.MonkeyPatch.context() as patcher, drift_threshold(0.0):
        patcher.setattr(interference, "MEMO_SLOTS", memo_slots)
        patcher.setattr(
            SlotSinrMemo,
            "__call__",
            lambda memo, keys: asked.append(len(set(keys))) or read(memo, keys),
        )
        for epoch in range(12):
            current = replace(links, demand=demand)
            before = cache._cached
            planned = cache(current, epoch)
            if cache.last_decision.patched:
                fresh = patch_schedule(before.schedule, current, model, max_length, table)
                assert [s.links for s in planned.schedule.slots] == [
                    s.links for s in fresh.slots
                ]
            if cache._sinrs is not None:
                assert len(cache._sinrs._seen) <= max(memo_slots, max(asked))
            drift = rng.integers(-2, 3, links.n_links) * (rng.random(links.n_links) < 0.5)
            demand = np.clip(demand + drift, 0, 6)
            demand[rng.integers(links.n_links)] += 1  # never all-zero
    assert max_length is not None or cache.stats.patches >= 3  # a window can refuse them all


def test_memo_forgets_the_oldest_past_its_bound_never_a_slot_asked_for(
    mesh, monkeypatch
):
    network, links = mesh
    monkeypatch.setattr(interference, "MEMO_SLOTS", 3)
    memo = SlotSinrMemo(network.model, links.heads, links.tails)
    pair = [(k, k + 20) for k in range(8)]
    memo(pair[:3])
    memo([pair[3], pair[1], (9,)])
    assert list(memo._seen) == pair[1:4]  # pair 0 was the oldest; (9,) is never kept
    memo(pair[4:])
    assert list(memo._seen) == pair[4:]  # one call may overrun
    counted = Counting(monkeypatch)
    memo([pair[7], pair[4]])
    assert counted.slots == 0


def test_annotator_memo_evaluates_each_distinct_slot_once(mesh, monkeypatch):
    """A replayed round evaluates nothing; a changed one only the slots no
    earlier round held; going back to an earlier round costs nothing."""
    network, links = mesh
    table = RateTable.geometric(network.radio.beta)
    schedule = greedy_rate(links, network.model, table)
    slots = [slot.as_array() for slot in schedule.slots]
    memo = SlotSinrMemo(network.model, links.heads, links.tails)
    annotator = RateAnnotator(memo, table)
    counted = Counting(monkeypatch)

    def distinct(round_slots):  # the slots the kernel is ever asked for
        return {tuple(idx.tolist()) for idx in round_slots if idx.size > 1}

    annotator.annotate(*join(slots))
    assert counted.slots == len(distinct(slots)) == len(memo._seen) > 0
    annotator.annotate(*join(slots[::-1]))
    assert counted.slots == len(distinct(slots))  # a replay is all hits
    thinned = slots[:3] + [idx[:2] for idx in slots[3:]]
    annotator.annotate(*join(thinned))
    assert counted.slots == len(distinct(slots) | distinct(thinned))
    annotator.annotate(*join(slots))
    assert counted.slots == len(distinct(slots) | distinct(thinned))  # remembered


def test_a_run_shares_one_memo_between_annotator_and_patch_cache(mesh, monkeypatch):
    """``run_epochs`` hands its memo to the annotator and to a patch cache
    over the run's own model: across a rate-annotated run no slot reaches
    the kernel twice, and no one-member slot reaches it at all.  A cache
    over another model object keeps a memo of its own, and a run without a
    rate table unbinds the last run's."""
    network, links = mesh
    model = network.model
    table = RateTable.geometric(network.radio.beta)

    def cache_over(cache_model):
        def scheduler(demand_links, epoch):
            return EpochSchedule(greedy_rate(demand_links, cache_model, table))

        return ScheduleCache(
            scheduler,
            policy="patch",
            model=cache_model,
            epoch_slots=300,
            rate_table=table,
        )

    def run(cache, rate_table):
        gateways = np.setdiff1d(np.arange(network.n_nodes), links.heads)
        arrivals = PoissonArrivals(network.n_nodes, 0.004, gateways=gateways, seed=3)
        config = EpochConfig(
            epoch_slots=300, n_epochs=12, reschedule_policy="patch", rate_table=rate_table
        )
        return run_epochs(links, arrivals, cache, config, model=model)

    handed = []
    flat = PhysicalInterferenceModel._slot_sinrs_flat

    def recording(self, heads, tails, slots):
        handed.extend(tuple(slot) for slot in slots)
        return flat(self, heads, tails, slots)

    monkeypatch.setattr(PhysicalInterferenceModel, "_slot_sinrs_flat", recording)
    monkeypatch.setattr(incremental, "DRIFT_THRESHOLD", 0.0)
    shared = cache_over(model)
    trace = run(shared, table)
    assert trace.patched_epochs >= 3
    assert handed and len(handed) == len(set(handed))
    assert min(map(len, handed)) > 1
    assert shared._sinrs is not None and shared._sinrs.model is model
    first = shared._sinrs

    other = cache_over(PhysicalInterferenceModel(model.power, model.radio))
    run(other, table)
    assert other._sinrs is None or other._sinrs.model is other._model

    run(shared, None)  # no annotator: the cache reads through a memo of its own
    assert shared._sinrs is not first
