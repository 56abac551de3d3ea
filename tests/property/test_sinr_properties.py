"""Property tests on SINR physics and slot feasibility invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sinr import sinr_for_links
from tests.conftest import SlotState

NOISE = 1e-9


@st.composite
def random_instance(draw):
    """A random node layout plus a random node-disjoint link set."""
    n = draw(st.integers(min_value=4, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 300.0, size=(n, 2))
    # Ensure minimum pairwise separation so gains stay finite-ish.
    positions += np.arange(n)[:, None] * 1e-3
    tx = rng.uniform(5.0, 30.0, size=n)
    power = received_power_matrix(positions, tx, LogDistancePathLoss(alpha=3.0))

    perm = rng.permutation(n)
    max_links = n // 2
    n_links = draw(st.integers(min_value=1, max_value=max_links))
    senders = perm[:n_links]
    receivers = perm[n_links : 2 * n_links]
    return power, senders.astype(np.intp), receivers.astype(np.intp)


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_adding_interferer_never_raises_sinr(instance):
    power, senders, receivers = instance
    if senders.size < 2:
        return
    subset = sinr_for_links(power, senders[:-1], receivers[:-1], NOISE)
    full = sinr_for_links(power, senders, receivers, NOISE)
    assert (full[:-1] <= subset + 1e-12).all()


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_sinr_nonnegative_and_finite(instance):
    power, senders, receivers = instance
    sinr = sinr_for_links(power, senders, receivers, NOISE)
    assert (sinr >= 0).all()
    assert np.isfinite(sinr).all()


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_feasible_sets_closed_under_removal(instance):
    """Removing any link from a feasible set keeps it feasible."""
    power, senders, receivers = instance
    model = PhysicalInterferenceModel(power, RadioConfig())
    if not model.is_feasible(senders, receivers):
        return
    for drop in range(senders.size):
        keep = np.arange(senders.size) != drop
        assert model.is_feasible(senders[keep], receivers[keep])


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_slotstate_agrees_with_exact_model(instance):
    """Incremental SlotState bookkeeping == exact-model evaluation."""
    power, senders, receivers = instance
    model = PhysicalInterferenceModel(power, RadioConfig())
    state = SlotState(model)
    cur_s: list[int] = []
    cur_r: list[int] = []
    for s, r in zip(senders, receivers):
        shares = s in cur_s or s in cur_r or r in cur_s or r in cur_r
        exact = not shares and model.is_feasible(
            np.append(cur_s, s).astype(np.intp),
            np.append(cur_r, r).astype(np.intp),
        )
        assert state.can_add(int(s), int(r)) == exact
        if exact:
            state.add(int(s), int(r))
            cur_s.append(int(s))
            cur_r.append(int(r))
    assert not len(state) or model.is_feasible(*state.members())


@given(random_instance())
@settings(max_examples=40, deadline=None)
def test_handshake_mask_upper_bounds_feasible_mask(instance):
    """Conditional ACKs can only help: handshake >= feasible per link."""
    power, senders, receivers = instance
    model = PhysicalInterferenceModel(power, RadioConfig())
    feasible = model.feasible_mask(senders, receivers)
    handshake = model.handshake_mask(senders, receivers)
    assert (handshake | ~feasible).all()  # feasible ⇒ handshake
