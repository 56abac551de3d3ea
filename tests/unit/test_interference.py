"""The two-sub-slot physical interference model."""

import numpy as np
import pytest

from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig


@pytest.fixture(scope="module")
def model():
    """Six nodes on a line, 45 m apart — adjacent pairs decode alone."""
    n = 6
    positions = np.column_stack([np.arange(n) * 45.0, np.zeros(n)])
    tx = np.full(n, 10 ** (12.0 / 10.0))
    power = received_power_matrix(positions, tx, LogDistancePathLoss(alpha=3.0))
    return PhysicalInterferenceModel(power, RadioConfig())


def test_single_link_feasible(model):
    assert model.is_feasible(np.array([0]), np.array([1]))


def test_adjacent_links_conflict(model):
    # 0->1 and 2->1 share the receiver: infeasible.
    assert not model.is_feasible(np.array([0, 2]), np.array([1, 1]))


def test_feasible_mask_is_per_link(model):
    # 0->1 with a strong nearby interferer 2->3: link SINRs differ.
    mask = model.feasible_mask(np.array([0, 2]), np.array([1, 3]))
    assert mask.shape == (2,)


def test_far_links_coexist(model):
    # 0->1 and 5->4 are 180+ m apart: should be concurrently feasible.
    assert model.is_feasible(np.array([0, 5]), np.array([1, 4]))


def test_ack_direction_enforced(model):
    """A link is infeasible when only the ACK side is jammed.

    Interferer 4->5 sits near sender 3 of link 3->2: the data packet (at
    receiver 2) survives but the ACK (at sender 3) is jammed by node 5's...
    actually by node 4's proximity — assert data/ACK SINRs are evaluated
    separately by checking the mask against manual SINR computations.
    """
    senders = np.array([3, 4])
    receivers = np.array([2, 5])
    data, ack = model.link_sinrs(senders, receivers)
    beta = model.radio.beta
    expected = (data >= beta) & (ack >= beta)
    assert np.array_equal(model.feasible_mask(senders, receivers), expected)


def test_handshake_mask_matches_feasible_mask_on_feasible_sets(model):
    senders, receivers = np.array([0, 5]), np.array([1, 4])
    assert np.array_equal(
        model.handshake_mask(senders, receivers),
        model.feasible_mask(senders, receivers),
    )


def test_handshake_mask_conditional_acks(model):
    """A dead link's ACK never airs, so it cannot jam other ACKs."""
    # Link 2->1 and 3->4; add 0->1 clash to kill 2->1's data (shared rcv).
    senders = np.array([0, 2, 5])
    receivers = np.array([1, 1, 4])
    mask = model.handshake_mask(senders, receivers)
    # Shared receiver: at most one of the first two can succeed.
    assert mask[:2].sum() <= 1


def test_sense_mask_transmitters_always_sense(model):
    mask = model.sense_mask(np.array([2]))
    assert mask[2]


def test_sense_mask_empty(model):
    assert not model.sense_mask(np.array([])).any()


def test_rejects_non_square_power():
    with pytest.raises(ValueError):
        PhysicalInterferenceModel(np.zeros((2, 3)), RadioConfig())


def test_with_budget_keeps_the_model_on_a_zero_budget_and_stacks_budgets(model):
    """An all-zero budget is no budget: the identical oracle comes back.  A
    budget on a budgeted oracle (a shard's guard over a far-field floor)
    adds to the one it has."""
    assert model.with_budget(np.zeros(model.n_nodes)) is model
    floor = np.full(model.n_nodes, model.radio.noise_mw)
    guard = np.arange(model.n_nodes, dtype=float) * model.radio.noise_mw
    stacked = model.with_budget(floor).with_budget(guard)
    np.testing.assert_array_equal(stacked.budget_mw, floor + guard)
