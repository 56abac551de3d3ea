"""Failure injection: K below the interference diameter (ablation A1).

The SCREAM correctness condition is K >= ID(GS).  Below it, floods truncate:
elections can crown regional leaders, vetoes can go unheard, and the
resulting schedules can be infeasible — all of which the independent
verifier must detect.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.scheduling import verify_schedule
from repro.topology.network import grid_network
from tests.conftest import make_links


@pytest.fixture(scope="module")
def sparse_grid():
    """A sparse grid with a large interference diameter.

    cs_gamma=1 keeps the sensitivity graph as thin as the communication
    graph, maximizing ID(GS) so there is room below it for truncated-K runs.
    """
    grid = grid_network(6, 6, density_per_km2=800.0)
    return replace(grid, radio=replace(grid.radio, cs_gamma=1.0))


def test_sparse_grid_has_room_below_id(sparse_grid):
    assert sparse_grid.interference_diameter() >= 3


def test_sufficient_k_is_correct(sparse_grid):
    _, links = make_links(sparse_grid, 1, seed=41)
    net_id = int(sparse_grid.interference_diameter())
    config = ProtocolConfig(k=net_id, id_bits=6)
    result = run_fdd(
        links, FastRuntime.for_network(sparse_grid, config), config, rng=1
    )
    assert result.terminated
    assert verify_schedule(result.schedule, sparse_grid.model).ok
    assert result.tally.multi_winner_elections == 0


def test_k_one_causes_detectable_failures(sparse_grid):
    _, links = make_links(sparse_grid, 1, seed=41)
    config = ProtocolConfig(
        k=1, id_bits=6, max_rounds=4 * links.total_demand + 20
    )
    result = run_fdd(
        links, FastRuntime.for_network(sparse_grid, config), config, rng=1
    )
    report = verify_schedule(result.schedule, sparse_grid.model)
    degraded = (
        result.tally.multi_winner_elections > 0
        or not report.ok
        or not result.terminated
    )
    assert degraded


def test_degradation_monotone_summary(sparse_grid):
    """Smaller K must never *reduce* the anomaly count to below K>=ID level.

    (Not strictly monotone run-to-run, so compare the K=ID run — which has
    zero anomalies by correctness — against the most truncated run.)
    """
    _, links = make_links(sparse_grid, 1, seed=43)
    net_id = int(sparse_grid.interference_diameter())

    def anomalies(k: int) -> int:
        config = ProtocolConfig(
            k=k, id_bits=6, max_rounds=4 * links.total_demand + 20
        )
        result = run_fdd(
            links, FastRuntime.for_network(sparse_grid, config), config, rng=2
        )
        report = verify_schedule(result.schedule, sparse_grid.model)
        return (
            result.tally.multi_winner_elections
            + len(report.infeasible_slots)
            + len(report.shortfall_links)
            + (0 if result.terminated else 1)
        )

    assert anomalies(net_id) == 0
    assert anomalies(1) > 0
