"""FastRuntime vs PacketRuntime: bit-identical behaviour on small networks.

The vectorized runtime used by all experiments must be indistinguishable —
schedules AND step tallies — from the ground-truth per-node packet engine.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.afdd import run_afdd
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.simulation.packet_runtime import PacketRuntime
from tests.conftest import make_links


def _schedules_equal(a, b) -> bool:
    if a.schedule_length != b.schedule_length:
        return False
    return all(
        sorted(x.links) == sorted(y.links)
        for x, y in zip(a.schedule.slots, b.schedule.slots)
    )


def _assert_runs_agree(run, network, links, config, rng):
    """The packet engine executes every construction step on the medium,
    one at a time; the fast runtime plans a round and resolves it in
    batches.  Schedules, tallies and per-round diagnostics must not tell."""
    fast, packet = (
        run(links, cls.for_network(network, config), config, rng=rng)
        for cls in (FastRuntime, PacketRuntime)
    )
    assert _schedules_equal(fast, packet)
    assert fast.tally.as_dict() == packet.tally.as_dict()
    assert fast.round_records == packet.round_records
    assert fast.resolve_calls < packet.resolve_calls == packet.tally.steps


def test_fdd_agreement(grid16, grid16_links, small_config):
    _assert_runs_agree(run_fdd, grid16, grid16_links, small_config, rng=9)


@pytest.mark.parametrize("seal_on_idle", [False, True], ids=["seal-dormant", "seal-idle"])
def test_afdd_agreement(grid16, grid16_links, small_config, seal_on_idle):
    config = replace(small_config, seal_on_idle_step=seal_on_idle)
    _assert_runs_agree(run_afdd, grid16, grid16_links, config, rng=9)


@pytest.mark.parametrize("p_active", [0.3, 0.8])
def test_pdd_agreement(grid16, grid16_links, small_config, p_active):
    config = small_config.with_p(p_active)
    _assert_runs_agree(run_pdd, grid16, grid16_links, config, rng=17)


def test_agreement_on_uniform_heterogeneous_network(uniform32, small_config):
    """Heterogeneous powers make the sensitivity graph asymmetric; the
    runtimes must still agree."""
    _, links = make_links(uniform32, 2, seed=23)
    _assert_runs_agree(run_fdd, uniform32, links, small_config, rng=5)


def test_scream_primitive_agreement(grid16, small_config):
    """Primitive-level agreement: random scream inputs, both substrates."""
    fast = FastRuntime.for_network(grid16, small_config)
    packet = PacketRuntime.for_network(grid16, small_config)
    rng = np.random.default_rng(3)
    for _ in range(10):
        inputs = rng.random(16) < 0.2
        assert np.array_equal(fast.scream(inputs), packet.scream(inputs))


def test_truncated_scream_agreement(grid16):
    """With K=1 the flood truncates identically on both substrates."""
    from repro.core.config import ProtocolConfig

    config = ProtocolConfig(k=1, id_bits=5)
    fast = FastRuntime.for_network(grid16, config)
    packet = PacketRuntime.for_network(grid16, config)
    rng = np.random.default_rng(4)
    for _ in range(10):
        inputs = rng.random(16) < 0.15
        assert np.array_equal(fast.scream(inputs), packet.scream(inputs))


def test_leader_election_agreement(grid16, small_config):
    fast = FastRuntime.for_network(grid16, small_config)
    packet = PacketRuntime.for_network(grid16, small_config)
    rng = np.random.default_rng(5)
    for _ in range(6):
        part = rng.random(16) < 0.5
        assert np.array_equal(fast.leader_elect(part), packet.leader_elect(part))


def test_handshake_agreement_with_shared_nodes(grid16, small_config):
    """Parent-child chains (shared nodes) must resolve identically."""
    fast = FastRuntime.for_network(grid16, small_config)
    packet = PacketRuntime.for_network(grid16, small_config)
    # Chain: 1->0 and 5->1 share node 1; plus a distant pair.
    senders = np.array([1, 5, 15])
    receivers = np.array([0, 1, 14])
    assert np.array_equal(
        fast.handshake(senders, receivers), packet.handshake(senders, receivers)
    )
