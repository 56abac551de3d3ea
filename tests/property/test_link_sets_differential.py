"""``sinr_for_link_sets`` rows ≡ ``sinr_for_links``, bit for bit.

The schedule-wide kernel evaluates ``S`` independent link sets in one
padded ``(S, L, L)`` gather.  Every rate-aware pass and the batched
handshake read it, so each row must equal — to the last bit, not to
rounding — what one :func:`~repro.phy.sinr.sinr_for_links` call on the row's
valid entries returns, wherever the padding sits, whatever the batch is cut
into, and on every power-matrix backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import sinr as sinr_module
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.sinr import sinr_for_link_sets, sinr_for_links
from repro.phy.sparse import build_sparse_power
from repro.topology.network import uniform_network
from tests.conftest import uniform_draw


@st.composite
def link_sets_case(draw):
    """A random deployment and a batch of padded link sets.

    Heterogeneous powers; every head's tail is one of its three nearest
    nodes, so sets hold shared endpoints (a tail that heads another member
    is deaf; two members can converge on one tail).  Sets range from empty
    to every node, and each row's members land on random columns of a row
    wider than the widest set — padding anywhere, not only at the end,
    with arbitrary in-range indices under it.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 16))
    density = draw(st.sampled_from([150.0, 500.0, 4000.0]))
    network = uniform_draw(n, density, seed)
    rng = np.random.default_rng(seed)
    dist = np.linalg.norm(
        network.positions[:, None, :] - network.positions[None, :, :], axis=2
    )
    nearest = np.argsort(dist, axis=1)[:, 1:4]
    tail_of = nearest[np.arange(n), rng.integers(0, 3, n)]

    n_sets = draw(st.integers(0, 7))
    sizes = [draw(st.integers(0, n)) for _ in range(n_sets)]
    width = max(sizes, default=0) + draw(st.integers(0, 3))
    senders = rng.integers(0, n, (n_sets, width))
    receivers = rng.integers(0, n, (n_sets, width))
    valid = np.zeros((n_sets, width), dtype=bool)
    for row, size in enumerate(sizes):
        at = np.sort(rng.permutation(width)[:size])
        members = rng.permutation(n)[:size]
        senders[row, at] = members
        receivers[row, at] = tail_of[members]
        valid[row, at] = True
    budget = rng.random(n) * network.radio.noise_mw * 4 if draw(st.booleans()) else None
    return network, senders, receivers, valid, budget


def assert_rows_match(power, senders, receivers, valid, noise, budget, batched):
    assert batched.shape == senders.shape and batched.dtype == float
    assert not batched[~valid].any()  # padding reports an exact 0.0
    for row in range(senders.shape[0]):
        on = valid[row]
        expected = sinr_for_links(power, senders[row, on], receivers[row, on], noise, budget)
        assert np.array_equal(batched[row, on], expected)


@given(link_sets_case())
@settings(max_examples=150, deadline=None)
def test_rows_match_one_call_per_set(case):
    network, senders, receivers, valid, budget = case
    noise = network.radio.noise_mw
    power = network.model.power
    batched = sinr_for_link_sets(power, senders, receivers, valid, noise, budget)
    assert_rows_match(power, senders, receivers, valid, noise, budget, batched)
    # Data and ACK sub-slots are the same kernel with the roles swapped.
    swapped = sinr_for_link_sets(power, receivers, senders, valid, noise, budget)
    assert_rows_match(power, receivers, senders, valid, noise, budget, swapped)


class SpyPower:
    """A dense power matrix that notes the size of every gather."""

    def __init__(self, power):
        self._power = power
        self.shape = power.shape
        self.gathers = []

    def __getitem__(self, key):
        out = self._power[key]
        self.gathers.append(np.size(out))
        return out


@given(link_sets_case(), st.sampled_from([1, 16, 64, 300]))
@settings(max_examples=60, deadline=None)
def test_gather_cap_bounds_the_mesh_without_changing_a_bit(case, cap):
    """A slot list that straddles the cap is cut along the set axis: same
    values, and no gather larger than the cap (or than one set's own
    ``L x L`` mesh — what ``sinr_for_links`` would build for it)."""
    network, senders, receivers, valid, budget = case
    noise = network.radio.noise_mw
    power = network.model.power
    uncapped = sinr_for_link_sets(power, senders, receivers, valid, noise, budget)
    spy = SpyPower(power)
    original = sinr_module.GATHER_ELEMENTS
    sinr_module.GATHER_ELEMENTS = cap
    try:
        capped = sinr_for_link_sets(spy, senders, receivers, valid, noise, budget)
    finally:
        sinr_module.GATHER_ELEMENTS = original
    assert np.array_equal(capped, uncapped)
    width = senders.shape[1]
    assert max(spy.gathers, default=0) <= max(cap, width * width)
    if senders.size and senders.shape[0] * width * width > max(cap, width * width):
        assert len(spy.gathers) > 2  # more than one (mesh, signal) pair


def test_default_cap_cuts_a_long_schedule():
    """At the shipped cap: 3000 sets of width 20 need 1.2 M mesh elements."""
    network = uniform_network(40, density_per_km2=600, rng=3)
    rng = np.random.default_rng(0)
    senders = rng.integers(0, 40, (3000, 20))
    receivers = rng.integers(0, 40, (3000, 20))
    valid = rng.random((3000, 20)) < 0.7
    spy = SpyPower(network.model.power)
    noise = network.radio.noise_mw
    batched = sinr_for_link_sets(spy, senders, receivers, valid, noise)
    assert max(spy.gathers) <= sinr_module.GATHER_ELEMENTS
    assert len(spy.gathers) == 4
    for row in (0, 1499, 2999):
        on = valid[row]
        expected = sinr_for_links(
            network.model.power, senders[row, on], receivers[row, on], noise
        )
        assert np.array_equal(batched[row, on], expected)


def test_degenerate_shapes_and_validation():
    network = uniform_network(8, density_per_km2=500, rng=1)
    power, noise = network.model.power, network.radio.noise_mw
    none = np.zeros((0, 0), dtype=np.intp)
    assert sinr_for_link_sets(power, none, none, none.astype(bool), noise).shape == (0, 0)
    empty = np.zeros((3, 0), dtype=np.intp)
    assert sinr_for_link_sets(power, empty, empty, empty.astype(bool), noise).shape == (3, 0)
    idx = np.zeros((2, 3), dtype=np.intp)
    on = np.ones((2, 3), dtype=bool)
    with pytest.raises(ValueError, match="share one"):
        sinr_for_link_sets(power, idx, idx[:, :2], on, noise)
    with pytest.raises(ValueError, match="share one"):
        sinr_for_link_sets(power, idx[0], idx[0], on[0], noise)
    with pytest.raises(ValueError, match="noise_mw"):
        sinr_for_link_sets(power, idx, idx, on, 0.0)
    with pytest.raises(ValueError, match="budget_mw"):
        sinr_for_link_sets(power, idx, idx, on, noise, np.zeros(3))


@given(link_sets_case())
@settings(max_examples=60, deadline=None)
def test_sparse_backends_take_their_own_path(case):
    """Value-dense (``cutoff=inf``) sparse storage rides the mesh and never
    calls the per-set kernel; a finite cutoff keeps the per-set scatter-add
    path, one call per set.  Either way rows ≡ ``sinr_for_links`` on the
    same matrix, and the value-dense rows ≡ the dense matrix's."""
    network, senders, receivers, valid, budget = case
    noise = network.radio.noise_mw
    args = (network.positions, network.tx_power_mw, network.propagation)
    value_dense = build_sparse_power(*args, float("inf"))
    cutoff = float(np.median(np.linalg.norm(network.positions - network.positions[0], axis=1)))
    near_field = build_sparse_power(*args, max(cutoff, 1.0))

    calls = []
    per_set = sinr_module.sinr_for_links

    def counted(*a, **kw):
        calls.append(1)
        return per_set(*a, **kw)

    sinr_module.sinr_for_links = counted
    try:
        on_value_dense = sinr_for_link_sets(value_dense, senders, receivers, valid, noise, budget)
        assert not calls
        on_near_field = sinr_for_link_sets(near_field, senders, receivers, valid, noise, budget)
        if not near_field.value_dense and senders.size:
            assert len(calls) == senders.shape[0]
    finally:
        sinr_module.sinr_for_links = per_set
    dense = sinr_for_link_sets(network.model.power, senders, receivers, valid, noise, budget)
    assert np.array_equal(on_value_dense, dense)
    assert_rows_match(near_field, senders, receivers, valid, noise, budget, on_near_field)


@given(link_sets_case())
@settings(max_examples=80, deadline=None)
def test_model_slot_calls_match_per_slot_calls(case):
    """``slot_sinrs`` over a slot list ≡ ``link_sinrs`` slot by slot —
    empty slots and the empty list included."""
    network, senders, _, valid, budget = case
    model = PhysicalInterferenceModel(network.model.power, network.radio, budget)
    n = network.n_nodes
    rng = np.random.default_rng(n)
    heads = np.arange(n)
    tails = (heads + 1 + rng.integers(0, n - 1, n)) % n
    slots = [senders[row, valid[row]].tolist() for row in range(senders.shape[0])]

    sinrs = model.slot_sinrs(heads, tails, slots)
    assert len(sinrs) == len(slots)
    for slot, worst in zip(slots, sinrs):
        if not slot:
            assert worst.size == 0
            continue
        data, ack = model.link_sinrs(heads[slot], tails[slot])
        assert np.array_equal(worst, np.minimum(data, ack))
    # Arrays of index arrays are slot lists too.
    singles = model.slot_sinrs(heads, tails, np.arange(n)[:, None])
    assert [s.shape for s in singles] == [(1,)] * n
