"""The level-synchronous serving kernel against slot-by-slot deques.

``LinkQueues.play`` never steps through an epoch: it expands the round into
a table of plays and, forest level by forest level, solves the service
recursion ``D_j = min(D_{j-1} + r_j, A_j)`` in closed form.  That is an
execution order, not a queueing discipline: return value, counters, the
delivery log in order and every queue's remaining contents must equal what
``tests/conftest.py::SlotwiseQueues`` — one deque per link, one slot at a
time, pops before pushes — leaves behind.

Mutation tried while writing this suite: handing departures to the next
level ordered by (slot time, FIFO rank) without the link's position in its
slot.  ``test_play_equals_slot_by_slot`` fails on it within the first few
examples (two links of one slot relay into the same queue in slot order,
not in link order), on the delivery log and on the queue contents.
"""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.scheduling.links import LinkSet
from repro.traffic import LinkQueues
from repro.util.ranges import join
from tests.conftest import SlotwiseQueues


def random_forest(rng, n_nodes, n_gateways, reach):
    """A forest link set over shuffled node labels and shuffled link order.
    Node ``v`` hangs below one of the ``reach`` nodes before it, so a small
    ``reach`` makes chains (depth >= 4 from 6 nodes up) and a large one
    bushes; the first ``n_gateways`` nodes are roots."""
    parent = np.array(
        [rng.integers(max(0, v - reach), v) for v in range(n_gateways, n_nodes)]
    )
    label = rng.permutation(n_nodes)
    order = rng.permutation(n_nodes - n_gateways)
    heads = label[n_gateways:][order]
    return LinkSet(
        heads=heads,
        tails=label[parent][order],
        demand=np.zeros(heads.size, dtype=np.int64),
        ids=rng.permutation(heads.size),
    )


def random_round(rng, n_links, n_slots, rated):
    """Slots (some empty, none listing a link twice) and their rates."""
    slots = [
        rng.permutation(n_links)[: rng.integers(0, n_links + 1)]
        if rng.random() < 0.85
        else np.empty(0, dtype=np.intp)
        for _ in range(n_slots)
    ]
    if rated == "none":
        return slots, None
    low, high = {"zero": (0, 1), "unit": (1, 2), "mixed": (0, 4)}[rated]
    return slots, [rng.integers(low, high, s.size) for s in slots]


def contents(queues):
    """Every link's queued ``(birth, source)`` sequence, front first."""
    if isinstance(queues, SlotwiseQueues):
        return [list(fifo) for fifo in queues.fifo]
    link = queues._order[queues._link]  # the store is sorted by (link, FIFO order)
    return [
        list(zip(queues._birth[link == k].tolist(), queues._source[link == k].tolist()))
        for k in range(queues.n_links)
    ]


def assert_same_state(got, want):
    assert np.array_equal(got.backlog, want.backlog)
    assert np.array_equal(got.served_by_link, want.served_by_link)
    assert (got.arrivals_total, got.plays_total, got.served_total, got.delivered_total) == (
        want.arrivals_total,
        want.plays_total,
        want.served_total,
        want.delivered_total,
    )
    assert (got.delays, got.births, got.sources) == (want.delays, want.births, want.sources)
    assert contents(got) == contents(want)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 16),
    n_gateways=st.integers(1, 4),
    reach=st.sampled_from([1, 2, 3, 16]),
    n_epochs=st.integers(1, 5),
    epoch_slots=st.integers(1, 40),
    rated=st.sampled_from(["none", "zero", "unit", "mixed", "mixed"]),
)
@settings(max_examples=300, deadline=None)
def test_play_equals_slot_by_slot(seed, n_nodes, n_gateways, reach, n_epochs, epoch_slots, rated):
    rng = np.random.default_rng(seed)
    n_gateways = min(n_gateways, n_nodes - 1)
    links = random_forest(rng, n_nodes, n_gateways, reach)
    kernel, oracle = LinkQueues(links), SlotwiseQueues(links)
    injected = np.zeros(links.n_links, dtype=np.int64)
    for epoch in range(n_epochs):
        start = epoch * epoch_slots
        arrivals = np.zeros(n_nodes, dtype=np.int64)
        busy = rng.random(links.n_links) < 0.6
        arrivals[links.heads] = rng.integers(0, 5, links.n_links) * busy
        injected += arrivals[links.heads]
        assert kernel.arrive(arrivals, start) == arrivals.sum()
        oracle.arrive(arrivals, start)
        assert_same_state(kernel, oracle)
        # 0-50 slots against a window of 0-40: rounds longer and shorter.
        slots, rates = random_round(rng, links.n_links, int(rng.integers(0, 51)), rated)
        overhead = int(rng.integers(0, epoch_slots + 1))
        members, ends = join(slots)
        flat_rates = None if rates is None else np.concatenate([np.empty(0, int), *rates])
        got = kernel.play(members, ends, start, epoch_slots, overhead, flat_rates)
        assert got == oracle.play(slots, start, epoch_slots, overhead, rates)
        assert_same_state(kernel, oracle)
        kernel.check_conservation()
        by_source = np.bincount(kernel._source, minlength=links.n_links) + np.bincount(
            np.asarray(kernel.sources, dtype=np.intp), minlength=links.n_links
        )
        assert np.array_equal(by_source, injected)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 12),
    reach=st.sampled_from([1, 2, 12]),
    rated=st.sampled_from(["none", "mixed"]),
)
@settings(max_examples=100, deadline=None)
def test_serve_slot_is_a_one_slot_round(seed, n_nodes, reach, rated):
    rng = np.random.default_rng(seed)
    links = random_forest(rng, n_nodes, 1, reach)
    slotted, oracle = LinkQueues(links), SlotwiseQueues(links)
    for time in range(12):
        arrivals = np.zeros(n_nodes, dtype=np.int64)
        arrivals[links.heads] = rng.integers(0, 3, links.n_links)
        slotted.arrive(arrivals, time)
        oracle.arrive(arrivals, time)
        (slot,), rates = random_round(rng, links.n_links, 1, rated)
        rate = None if rates is None else rates[0]
        played = copy.deepcopy(slotted)
        got = slotted.serve_slot(slot, time, rates=rate)
        assert got == played.play(slot, [slot.size], time, 1, 0, rate)
        assert got == oracle.serve_slot(slot, time, rate)
        assert_same_state(slotted, played)
        assert_same_state(slotted, oracle)
