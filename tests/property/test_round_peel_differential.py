"""The round peel against the per-slot peel it replaced, bit for bit.

``repro.phy.truth.peel_round`` judges every slot of a round in lockstep on
padded ``(S, 2, L, L)`` stacks, a chunk of slots at a time;
``tests/conftest.py::peel_slot`` is the one-slot loop it replaced.  On
rounds drawn with empty slots, lone members that cannot decode alone,
node-sharing (deaf) members, mirror-image members with tied margins, and
slots wider than one chunk next to narrow ones, the round pass must keep
the oracle's members with the oracle's margins and count the oracle's
``found`` violations, slot by slot — on a dense model's entries (with and
without a far-field budget) and on a truncated model's geometry alike.
"""

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy import truth
from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import sparse_gain_model
from tests.conftest import peel_slots

#: Chunk sizes: one slot per chunk, small chunks, the library's own.
STACKS = [1, 16, 64, truth._STACK_ELEMENTS]

#: Node positions appended to every draw: a link that cannot decode even
#: alone (nodes ``n, n+1``) and two mirror-image links with equal powers
#: (``n+2 -> n+3`` and ``n+4 -> n+5``), whose margins tie exactly.
SPECIAL = np.array(
    [[0.0, 0.0], [1.0e5, 0.0], [2.0e5, 0.0], [2.0e5 + 40.0, 0.0], [2.0e5 + 90.0, 0.0],
     [2.0e5 + 50.0, 0.0]]
)


@st.composite
def round_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=4, max_value=120))
    alpha = draw(st.sampled_from([3.0, 2.2, 4.5]))
    side = draw(st.sampled_from([3.0, 60.0, 300.0, 1500.0]))
    positions = np.concatenate([rng.uniform(0, side, size=(n, 2)), SPECIAL])
    tx = np.concatenate([rng.uniform(1.0, 100.0, size=n), np.full(SPECIAL.shape[0], 15.8)])
    senders, receivers, ends = [], [], []
    for kind in draw(
        st.lists(
            st.sampled_from(["empty", "narrow", "wide", "shared", "dead", "tie"]),
            max_size=8,
        )
    ):
        if kind == "empty":
            snd = rcv = np.empty(0, dtype=np.intp)
        elif kind == "dead":
            snd, rcv = np.array([n]), np.array([n + 1])
        elif kind == "tie":
            snd, rcv = np.array([n + 2, n + 4]), np.array([n + 3, n + 5])
        else:
            k = int(rng.integers(1, 4)) if kind == "narrow" else int(rng.integers(2, n // 2 + 1))
            k = min(k, n // 2)
            perm = rng.permutation(n)
            snd, rcv = perm[:k], perm[k : 2 * k].copy()
            if kind == "shared" and k >= 2:
                rcv[1] = snd[0]  # a relay chain: node shared across members
        senders.append(snd)
        receivers.append(rcv)
        ends.append(len(snd) + (ends[-1] if ends else 0))
    senders = np.concatenate([np.empty(0, dtype=np.intp), *senders]).astype(np.intp)
    receivers = np.concatenate([np.empty(0, dtype=np.intp), *receivers]).astype(np.intp)
    stack = draw(st.sampled_from(STACKS))
    return positions, tx, alpha, senders, receivers, ends, stack


def _agree(incidence, senders, receivers, ends, beta, stack):
    with mock.patch.object(truth, "_STACK_ELEMENTS", stack):
        verdict = truth.peel_round(incidence, senders, receivers, ends, beta)
    keep, margins, found, elements = peel_slots(incidence, senders, receivers, ends, beta)
    assert np.array_equal(verdict.keep, keep)
    assert np.array_equal(verdict.margins, margins)
    assert np.array_equal(verdict.found, found)
    assert verdict.elements == elements
    return verdict


@given(round_instance(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_round_peel_equals_the_slot_peel_on_a_dense_model(instance, budgeted):
    positions, tx, alpha, senders, receivers, ends, stack = instance
    radio = RadioConfig(alpha=alpha)
    power = received_power_matrix(positions, tx, LogDistancePathLoss(alpha))
    model = PhysicalInterferenceModel(power, radio)
    if budgeted:
        model = model.with_budget(np.linspace(0.0, 2.0, positions.shape[0]) * radio.noise_mw)
    _agree(partial(truth.power_incidence, model), senders, receivers, ends, radio.beta, stack)


@given(round_instance())
@settings(max_examples=120, deadline=None)
def test_round_peel_equals_the_slot_peel_on_a_truncated_recipe(instance):
    positions, tx, alpha, senders, receivers, ends, stack = instance
    radio = RadioConfig(alpha=alpha)
    propagation = LogDistancePathLoss(alpha)
    geometry = sparse_gain_model(positions, tx, propagation, radio).power.geometry
    assert isinstance(geometry, truth.Geometry)
    incidence = partial(truth.geometry_incidence, geometry, radio.noise_mw)
    _agree(incidence, senders, receivers, ends, radio.beta, stack)

    # The check without peeling is the first evaluation of every slot: the
    # dense judge's margins, bit for bit, violations counted alike.
    with mock.patch.object(truth, "_STACK_ELEMENTS", stack):
        report = truth.check_slots(geometry, senders, receivers, ends, radio.noise_mw, radio.beta)
    dense = PhysicalInterferenceModel(received_power_matrix(positions, tx, propagation), radio)
    expected = [np.empty(0, dtype=float)]
    for lo, hi in zip([0, *ends], ends):
        data, ack = dense.link_sinrs(senders[lo:hi], receivers[lo:hi])
        expected.append(np.minimum(data, ack) / radio.beta)
    expected = np.concatenate(expected)
    assert np.array_equal(report.margins, expected)
    assert report.violations == int((expected < 1.0).sum())
    widths = np.diff(ends, prepend=0)
    assert report.check_elements == int((widths * widths).sum())


def test_tied_slots_peel_their_earliest_member_in_lockstep():
    """Many copies of a mirror-image slot (two failing members with equal
    margins) beside a clean slot and a dead one, all in one chunk: every
    tie slot removes its *first* member, as the slot-by-slot peel does."""
    n = 4
    positions = np.concatenate([np.zeros((n, 2)) + [[5.0e5, 0.0]], SPECIAL])
    positions[:n, 0] += [0.0, 20.0, 1.0e4, 1.0e4 + 20.0]
    tx = np.full(positions.shape[0], 15.8)
    radio = RadioConfig()
    model = PhysicalInterferenceModel(
        received_power_matrix(positions, tx, LogDistancePathLoss(alpha=3.0)), radio
    )
    tie_s, tie_r = [n + 2, n + 4], [n + 3, n + 5]
    senders = np.array(tie_s * 3 + [0, 2] + tie_s + [n])
    receivers = np.array(tie_r * 3 + [1, 3] + tie_r + [n + 1])
    ends = [2, 4, 6, 8, 10, 11]
    verdict = _agree(
        partial(truth.power_incidence, model), senders, receivers, ends, radio.beta,
        truth._STACK_ELEMENTS,
    )
    assert verdict.keep.tolist() == [False, True] * 3 + [True, True] + [False, True, False]
    assert verdict.found.tolist() == [2, 2, 2, 0, 2, 1]
