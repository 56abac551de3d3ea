"""Arbitrary (non-forest) link sets scheduled distributedly, in waves."""

import numpy as np
import pytest

from repro.core.arbitrary import run_arbitrary_link_set
from repro.core.config import ProtocolConfig
from repro.scheduling.links import LinkSet
from repro.scheduling.metrics import verify_schedule


@pytest.fixture(scope="module")
def multi_links(grid16):
    """A link set where several nodes head more than one link.

    Built from lattice neighbors of the 4x4 grid (step ~30 m, well inside
    range), with distinct IDs; node 5 heads three links, node 10 two.
    """
    heads = np.array([5, 5, 5, 10, 10, 3, 12])
    tails = np.array([1, 4, 6, 11, 14, 2, 13])
    demand = np.array([2, 1, 2, 3, 1, 2, 2])
    ids = np.array([70, 61, 52, 43, 34, 25, 16])
    links = LinkSet(heads=heads, tails=tails, demand=demand, ids=ids)
    for h, t in zip(heads, tails):
        assert grid16.comm_adj[h, t], f"test link {h}->{t} must be a comm edge"
    return links


@pytest.mark.parametrize("protocol", ["fdd", "pdd"])
def test_arbitrary_schedule_valid_and_complete(grid16, multi_links, protocol):
    result = run_arbitrary_link_set(
        grid16,
        multi_links,
        ProtocolConfig(k=5, id_bits=7),
        protocol=protocol,
        rng=3,
    )
    report = verify_schedule(result.schedule, grid16.model)
    assert report.ok
    assert np.array_equal(result.schedule.allocations(), multi_links.demand)


def test_wave_count_equals_max_links_per_head(grid16, multi_links):
    result = run_arbitrary_link_set(
        grid16, multi_links, ProtocolConfig(k=5, id_bits=7), rng=4
    )
    # Node 5 heads three links -> exactly three waves.
    assert len(result.waves) == 3


def test_waves_process_links_in_decreasing_id_order(grid16, multi_links):
    result = run_arbitrary_link_set(
        grid16, multi_links, ProtocolConfig(k=5, id_bits=7), rng=5
    )
    # Wave 1 must contain node 5's highest-ID link (id 70 -> link 0) and
    # not its others; links 1 (id 61) and 2 (id 52) wait for later waves.
    first_wave_globals = set()
    for slot in result.schedule.slots[: result.waves[0].schedule_length]:
        first_wave_globals.update(slot.links)
    assert 0 in first_wave_globals
    assert 1 not in first_wave_globals
    assert 2 not in first_wave_globals


def test_forest_link_set_degenerates_to_single_wave(grid16, grid16_links):
    result = run_arbitrary_link_set(
        grid16, grid16_links, ProtocolConfig(k=5, id_bits=5), rng=6
    )
    assert len(result.waves) == 1
    assert verify_schedule(result.schedule, grid16.model).ok


def test_id_bits_widened_automatically(grid16):
    links = LinkSet(
        heads=np.array([1, 4]),
        tails=np.array([0, 0]),
        demand=np.array([1, 1]),
        ids=np.array([1000, 999]),  # needs 10 bits, config says 5
    )
    result = run_arbitrary_link_set(
        grid16, links, ProtocolConfig(k=5, id_bits=5), rng=7
    )
    assert verify_schedule(result.schedule, grid16.model).ok


def test_unknown_protocol_rejected(grid16, grid16_links):
    with pytest.raises(ValueError, match="protocol"):
        run_arbitrary_link_set(grid16, grid16_links, protocol="tdma")
