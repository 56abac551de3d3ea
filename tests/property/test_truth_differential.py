"""The truth kernel against the judge, and the schedules it guarantees.

``repro.phy.truth`` decides whether a slot decodes without ever holding an
``(n, n)`` matrix.  The benchmark's audit decides the same question with
``PhysicalInterferenceModel.feasible_mask`` over the dense
``received_power_matrix`` of the slot's nodes; the two must agree to the
last bit, or a schedule the kernel passes could sit an ulp on the wrong
side of the audit.  On top of that: every schedule ``greedy_physical``
emits on a truncated, geometry-backed model decodes under the dense model,
and the repair path is a property of the input — dense models, ``cutoff=∞``
and hand-built sparse matrices never enter it.
"""

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.phy import truth
from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import SparsePowerMatrix, build_sparse_power, sparse_gain_model
from repro.scheduling.feasibility import infeasible_slots
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.links import LinkSet
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from tests.conftest import exact_link_sinrs


def _judge(positions, tx, propagation, radio, senders, receivers):
    """bench/audit.py's ``audit_slot``: the dense oracle over the slot's
    own nodes."""
    nodes, local = np.unique(np.concatenate([senders, receivers]), return_inverse=True)
    power = received_power_matrix(positions[nodes], tx[nodes], propagation)
    model = PhysicalInterferenceModel(power, radio)
    snd, rcv = local[: senders.size], local[senders.size :]
    return model.link_sinrs(snd, rcv), model.feasible_mask(snd, rcv)


def _peel(incidence, senders, receivers, beta):
    """``truth.peel_round`` on a one-slot round: ``(kept, margin, found)``."""
    verdict = truth.peel_round(incidence, senders, receivers, [senders.size], beta)
    return np.flatnonzero(verdict.keep), verdict.margins, int(verdict.found[0])


@st.composite
def slot_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=4, max_value=160))
    alpha = draw(st.floats(min_value=2.05, max_value=5.0))
    # Sides from "everyone below the reference distance" to a sparse field.
    side = draw(st.sampled_from([0.8, 3.0, 60.0, 1500.0]))
    positions = rng.uniform(0, side, size=(n, 2))
    tx = rng.uniform(1.0, 100.0, size=n)
    k = draw(st.integers(min_value=1, max_value=n // 2))
    perm = rng.permutation(n)
    senders, receivers = perm[:k], perm[k : 2 * k]
    if k >= 2 and draw(st.booleans()):
        receivers[1] = senders[0]  # a relay chain: node shared across members
    chunk = draw(st.sampled_from([1, 7, 64, 1 << 14]))
    return positions, tx, alpha, senders, receivers, chunk


@given(slot_instance())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_dense_oracle_bit_for_bit(instance):
    positions, tx, alpha, senders, receivers, chunk = instance
    propagation = LogDistancePathLoss(alpha)
    radio = RadioConfig(alpha=alpha)
    (data, ack), decodes = _judge(positions, tx, propagation, radio, senders, receivers)

    geometry = truth.Geometry(positions, tx, propagation)
    # A slot wider than one chunk must not change a bit.
    with mock.patch.object(truth, "_CHUNK_ELEMENTS", chunk):
        got_data, got_ack = exact_link_sinrs(
            geometry, senders, receivers, radio.noise_mw
        )
    # The issue's bar is 1e-12 relative; mirroring the oracle's operation
    # order buys exact equality, which is what rules the ulp case out.
    assert np.array_equal(got_data, data)
    assert np.array_equal(got_ack, ack)

    report = truth.check_slots(
        geometry, senders, receivers, [senders.size], radio.noise_mw, radio.beta
    )
    assert np.array_equal(report.margins >= 1.0, decodes)
    assert report.violations == int((~decodes).sum())
    assert float(report.margins.min()) == float(np.minimum(data, ack).min() / radio.beta)
    shared = np.isin(receivers, senders) | np.isin(senders, receivers)
    assert (report.margins[shared] == 0.0).all()  # deaf: always a violation


@given(slot_instance())
@settings(max_examples=60, deadline=None)
def test_peeled_slot_decodes_under_the_dense_oracle(instance):
    positions, tx, alpha, senders, receivers, chunk = instance
    propagation = LogDistancePathLoss(alpha)
    radio = RadioConfig(alpha=alpha)
    geometry = truth.Geometry(positions, tx, propagation)
    with mock.patch.object(truth, "_CHUNK_ELEMENTS", chunk):
        kept, margin, found = _peel(
            partial(truth.geometry_incidence, geometry, radio.noise_mw),
            senders, receivers, radio.beta,
        )
    (data, ack), decodes = _judge(
        positions, tx, propagation, radio, senders[kept], receivers[kept]
    )
    as_packed = _judge(positions, tx, propagation, radio, senders, receivers)[1]
    assert found == int((~as_packed).sum())
    assert np.all(np.diff(kept) > 0)
    assert np.array_equal(margin, np.minimum(data, ack) / radio.beta)
    # Everything kept decodes; a slot whose last survivor cannot decode even
    # alone is emptied.
    assert decodes.all()


@given(slot_instance(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_peel_on_the_model_entries_equals_the_peel_on_the_recipe(instance, sparse, budgeted):
    """One peel, two judges: on the received-power matrix of the same
    geometry — dense (the sharded engine's model) or sparse at
    ``cutoff=inf`` — the peel keeps the same members with the same margins,
    bit for bit, and a budget is charged at each listener as
    ``PhysicalInterferenceModel.link_sinrs`` charges it."""
    positions, tx, alpha, senders, receivers, chunk = instance
    propagation = LogDistancePathLoss(alpha)
    radio = RadioConfig(alpha=alpha)
    if sparse:
        power = build_sparse_power(positions, tx, propagation, float("inf"))
    else:
        power = received_power_matrix(positions, tx, propagation)
    model = PhysicalInterferenceModel(power, radio)
    with mock.patch.object(truth, "_CHUNK_ELEMENTS", chunk):
        by_recipe = _peel(
            partial(
                truth.geometry_incidence,
                truth.Geometry(positions, tx, propagation),
                radio.noise_mw,
            ),
            senders, receivers, radio.beta,
        )
        if budgeted:
            model = model.with_budget(np.linspace(0.0, 2.0, positions.shape[0]) * radio.noise_mw)
        kept, margin, found = _peel(
            partial(truth.power_incidence, model), senders, receivers, radio.beta
        )
    data, ack = model.link_sinrs(senders, receivers)
    assert found == int((np.minimum(data, ack) < radio.beta).sum())
    data, ack = model.link_sinrs(senders[kept], receivers[kept])
    assert np.array_equal(margin, np.minimum(data, ack) / radio.beta)
    if not budgeted:
        assert np.array_equal(kept, by_recipe[0])
        assert np.array_equal(margin, by_recipe[1]) and found == by_recipe[2]


@st.composite
def truncated_instance(draw):
    """Random positions, heterogeneous power, a finite cutoff that really
    truncates, and a random set of communication edges with demands."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=30, max_value=140))
    alpha = draw(st.floats(min_value=2.2, max_value=5.0))
    far_field = draw(st.sampled_from(["packing", "none"]))
    radio = RadioConfig(alpha=alpha)
    propagation = LogDistancePathLoss(alpha)
    tx = rng.uniform(8.0, 30.0, size=n)
    reach = propagation.range_for_snr(float(tx.mean()), radio.noise_mw, radio.beta)
    # ~3 nodes per communication disk; the field spans several cutoffs.
    positions = rng.uniform(0, reach * np.sqrt(n), size=(n, 2))
    sgm = sparse_gain_model(positions, tx, propagation, radio, far_field=far_field)
    indptr, indices = communication_csr(
        sgm.power, radio.noise_mw, radio.beta, budget_mw=sgm.floor_mw
    )
    heads = np.repeat(np.arange(n), np.diff(indptr))
    assume(heads.size >= 4)
    picked = rng.permutation(heads.size)[: draw(st.integers(4, min(heads.size, 3 * n)))]
    demand = rng.integers(0, 4, size=picked.size)
    links = LinkSet(heads[picked], indices[picked], demand, np.arange(picked.size))
    return positions, tx, propagation, radio, sgm, links


@given(truncated_instance())
@settings(max_examples=60, deadline=None)
def test_every_truncated_schedule_decodes_under_the_dense_model(instance):
    positions, tx, propagation, radio, sgm, links = instance
    assert not sgm.power.value_dense
    schedule = greedy_physical(links, sgm.interference_model(radio))

    exact = PhysicalInterferenceModel(
        received_power_matrix(positions, tx, propagation), radio
    )
    assert not infeasible_slots(schedule, exact)
    assert np.array_equal(schedule.allocations(), links.demand)
    assert all(len(slot) for slot in schedule.slots)

    report = schedule.truth
    assert report is not None
    assert report.margins.size == links.total_demand
    # ``all`` rather than ``min``: a link set whose demands are all zero
    # packs no slot and leaves no margin to take the minimum of.
    assert (report.margins >= 1.0).all()
    assert report.repaired_tx <= report.violations
    assert (report.repair_rounds == 0) == (report.repaired_tx == 0)


def _smoke_mesh(far_field, **kwargs):
    """bench's ``sparse_10k --smoke`` deployment: the 20x20 grid."""
    net = grid_network(20, 20, density_per_km2=1000.0)
    sgm = sparse_gain_model(
        net.positions, net.tx_power_mw, net.propagation, net.radio,
        far_field=far_field, **kwargs,
    )
    indptr, indices = communication_csr(
        sgm.power, net.radio.noise_mw, net.radio.beta, budget_mw=sgm.floor_mw
    )
    heads = np.repeat(np.arange(net.n_nodes), np.diff(indptr))
    links = LinkSet(heads, indices, np.ones(heads.size, dtype=int), np.arange(heads.size))
    return net, sgm, links


def test_zero_demand_on_a_truncated_model_packs_nothing_and_checks_nothing():
    net, sgm, links = _smoke_mesh("packing")
    idle = LinkSet(links.heads, links.tails, np.zeros(links.heads.size, dtype=int), links.ids)
    schedule = greedy_physical(idle, sgm.interference_model(net.radio))
    assert schedule.slots == []
    report = schedule.truth
    assert report is not None and report.margins.size == 0
    assert report.violations == report.repaired_tx == report.repair_rounds == 0


def test_no_far_field_needs_at_least_as_many_repairs_as_the_packing_floor():
    repaired = {}
    for far_field in ("packing", "none"):
        net, sgm, links = _smoke_mesh(far_field)
        schedule = greedy_physical(links, sgm.interference_model(net.radio))
        assert not infeasible_slots(schedule, net.model)
        repaired[far_field] = schedule.truth.repaired_tx
    # The negative control keeps its meaning: charging nothing for the far
    # field is at least as wrong as charging the mean field.
    assert repaired["none"] >= repaired["packing"]
    assert repaired["none"] > 0


def test_dense_and_untruncated_models_never_enter_the_repair_path():
    net, sgm, links = _smoke_mesh("packing", cutoff_m=float("inf"))
    assert sgm.power.value_dense and sgm.power.geometry is not None
    untruncated = greedy_physical(links, sgm.interference_model(net.radio))
    dense = greedy_physical(links, net.model)
    assert untruncated.truth is None and dense.truth is None
    assert untruncated.slots == dense.slots


def test_hand_built_sparse_matrix_packs_as_before():
    net, sgm, links = _smoke_mesh("packing")
    rows, cols, vals = sgm.power.entries()
    bare = SparsePowerMatrix(net.n_nodes, sgm.power.keys, vals)
    assert bare.geometry is None
    packed = greedy_physical(
        links, PhysicalInterferenceModel(bare, net.radio, sgm.floor_mw)
    )
    assert packed.truth is None
    # No recipe, no repair: the schedule is the plain greedy's over the
    # stored entries — what the dense arena packs from the same values.
    reference = greedy_physical(
        links, PhysicalInterferenceModel(sgm.power.toarray(), net.radio, sgm.floor_mw)
    )
    assert packed.slots == reference.slots
    # ... which the geometry-backed twin then has to repair.
    repaired = greedy_physical(links, sgm.interference_model(net.radio))
    assert repaired.truth.repaired_tx > 0
    assert repaired.length > packed.length
