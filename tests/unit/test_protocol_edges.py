"""Protocol engine edge cases."""

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.scheduling.links import LinkSet
from repro.scheduling.metrics import verify_schedule


@pytest.fixture()
def config():
    return ProtocolConfig(k=5, id_bits=5)


def test_all_zero_demand_terminates_immediately(grid16, config):
    links = LinkSet(
        heads=np.array([1, 4]),
        tails=np.array([0, 0]),
        demand=np.array([0, 0]),
        ids=np.array([1, 4]),
    )
    result = run_fdd(links, FastRuntime.for_network(grid16, config), config, rng=1)
    assert result.terminated
    assert result.schedule_length == 0
    # Termination still costs one election + one scream on the air.
    assert result.tally.elections == 1
    assert result.tally.scream_slots > 0


def test_single_link_schedule(grid16, config):
    links = LinkSet(
        heads=np.array([1]),
        tails=np.array([0]),
        demand=np.array([4]),
        ids=np.array([1]),
    )
    result = run_fdd(links, FastRuntime.for_network(grid16, config), config, rng=2)
    assert result.schedule_length == 4
    assert all(slot.links == [0] for slot in result.schedule.slots)
    assert verify_schedule(result.schedule, grid16.model).ok


def test_mismatched_ids_rejected(grid16, config):
    links = LinkSet(
        heads=np.array([1, 4]),
        tails=np.array([0, 0]),
        demand=np.array([1, 1]),
        ids=np.array([100, 101]),  # disagree with runtime node ids
    )
    with pytest.raises(ValueError, match="disagree"):
        run_fdd(links, FastRuntime.for_network(grid16, config), config, rng=3)


def test_pdd_zero_probability_rejected(grid16, grid16_links, config):
    with pytest.raises(ValueError, match="p_active"):
        run_pdd(
            grid16_links,
            FastRuntime.for_network(grid16, config.with_p(0.0)),
            config.with_p(0.0),
            rng=4,
        )


def test_max_rounds_cap_reports_unterminated(grid16, grid16_links):
    config = ProtocolConfig(k=5, id_bits=5, max_rounds=2)
    result = run_fdd(
        grid16_links, FastRuntime.for_network(grid16, config), config, rng=5
    )
    assert not result.terminated
    assert result.rounds == 2
    report = verify_schedule(result.schedule, grid16.model)
    assert not report.demand_satisfied  # truncated run, and detectably so


@pytest.mark.parametrize("idle_seal", [False, True])
def test_pdd_valid_under_both_seal_readings(grid16, grid16_links, idle_seal):
    from dataclasses import replace

    config = ProtocolConfig(
        k=5, id_bits=5, p_active=0.4, seal_on_idle_step=idle_seal
    )
    result = run_pdd(
        grid16_links, FastRuntime.for_network(grid16, config), config, rng=6
    )
    assert result.terminated
    assert verify_schedule(result.schedule, grid16.model).ok


def test_fdd_seal_readings_produce_identical_schedules(grid16, grid16_links):
    """FDD drains exactly one dormant per step, so both sealing readings
    coincide by construction."""
    from dataclasses import replace

    base = ProtocolConfig(k=5, id_bits=5, seal_on_idle_step=False)
    alt = replace(base, seal_on_idle_step=True)
    a = run_fdd(grid16_links, FastRuntime.for_network(grid16, base), base, rng=7)
    b = run_fdd(grid16_links, FastRuntime.for_network(grid16, alt), alt, rng=7)
    assert a.schedule_length == b.schedule_length
    for sa, sb in zip(a.schedule.slots, b.schedule.slots):
        assert sorted(sa.links) == sorted(sb.links)


def test_step_cap_fires_on_a_plan_that_never_drains(
    grid16, grid16_links, config, monkeypatch
):
    """The cap bounds the *planned* step count: a strategy that never
    activates anybody cannot seal a slot under the default rule."""
    from itertools import repeat

    from repro.core import protocol

    monkeypatch.setattr(protocol, "MAX_STEPS_PER_SLOT", 50)
    nobody = np.empty(0, dtype=np.intp)
    with pytest.raises(RuntimeError, match="step cap"):
        protocol.run_protocol(
            grid16_links,
            FastRuntime.for_network(grid16, config),
            config,
            lambda dormant, runtime, rng: repeat(nobody),
        )


#: (full StepTally, schedule) of faulty runs on the 4x4 fixture at
#: ``scream_miss_prob=0.2``, K=2, p=0.4, rng=31 — recorded from the
#: step-at-a-time loop this repo ran before rounds were planned ahead.
_FAULTY_GOLDEN = {
    "fdd": (
        dict(scream_slots=4582, data_subslots=308, ack_subslots=308, syncs=676,
             scream_calls=2291, elections=323, handshakes=308, rounds=45,
             steps=308, veto_steps=298, multi_winner_elections=15),
        [[14], [14], [14], [13], [6], [6], [6], [12], [3, 12], [12], [12], [11],
         [11], [10], [10], [7], [7], [7], [7], [7], [7], [7], [9], [9], [9], [8],
         [8], [8], [5], [5], [5], [5], [5], [5], [5], [5], [3, 4], [2], [2], [2],
         [1], [1], [1], [0], [0]],
    ),
    "afdd": (
        dict(scream_slots=3128, data_subslots=320, ack_subslots=320, syncs=703,
             scream_calls=1564, elections=63, handshakes=320, rounds=47,
             steps=320, veto_steps=307, multi_winner_elections=4),
        [[14], [14], [14], [13], [12], [12], [12], [12], [11], [11], [10], [10],
         [9], [9], [9], [8], [8], [8], [7], [7], [7], [7], [7], [7], [7], [6],
         [6], [6], [5], [5], [5], [5], [5], [5], [5], [5], [4], [3], [3], [2],
         [2], [2], [1], [1], [1], [0], [0]],
    ),
    "pdd": (
        dict(scream_slots=1164, data_subslots=222, ack_subslots=222, syncs=502,
             scream_calls=582, elections=16, handshakes=222, rounds=42,
             steps=222, veto_steps=146, multi_winner_elections=1),
        [[14], [14], [14], [13], [7, 12], [7, 12], [7, 12], [7, 12], [11], [11],
         [10], [10], [9], [9], [9], [8], [8], [3, 8], [7], [7], [7], [6], [6],
         [6], [5], [5], [5], [5], [5], [5], [5], [5], [4], [3], [2], [2], [2],
         [1], [1], [1], [0], [0]],
    ),
}


@pytest.mark.parametrize("protocol", sorted(_FAULTY_GOLDEN))
def test_faulty_runtime_consumes_its_rng_in_paper_order(
    grid16, grid16_links, protocol
):
    """Every carrier-sense miss is a draw from one shared stream, so a
    faulty run only reproduces if elections, veto and seal SCREAMs execute
    in exactly the order they always did — no drawing ahead, no batching."""
    from repro.core.afdd import afdd_on_network
    from repro.core.config import FaultConfig
    from repro.core.fdd import fdd_on_network
    from repro.core.pdd import pdd_on_network

    run = {"fdd": fdd_on_network, "afdd": afdd_on_network, "pdd": pdd_on_network}
    config = ProtocolConfig(k=2, id_bits=5, p_active=0.4, max_rounds=60)
    result = run[protocol](
        grid16,
        grid16_links,
        config,
        faults=FaultConfig(scream_miss_prob=0.2),
        rng=31,
    )
    tally, slots = _FAULTY_GOLDEN[protocol]
    assert result.tally.as_dict() == tally
    assert [slot.links for slot in result.schedule.slots] == slots
    # One resolve per construction step: nothing was looked at twice.
    assert result.resolve_calls == result.trials_evaluated == result.tally.steps
