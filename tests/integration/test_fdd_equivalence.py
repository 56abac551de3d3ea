"""Theorem 4 at full scale: FDD == GreedyPhysical on the paper's scenarios."""

import dataclasses

import numpy as np
import pytest

from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import fdd_on_network, run_fdd
from repro.experiments.common import grid_scenario, uniform_scenario
from repro.scheduling import greedy_physical, verify_schedule
from repro.scheduling.orderings import hashed_ids
from tests.conftest import StepwiseRuntime


@pytest.mark.parametrize("density", [1000.0, 5000.0, 25000.0])
def test_fdd_matches_greedy_on_grid(density, paper_config):
    scenario = grid_scenario(density, rep=0, seed=99)
    central = greedy_physical(scenario.links, scenario.network.model)
    fdd = fdd_on_network(scenario.network, scenario.links, paper_config, rng=1)
    assert fdd.terminated
    assert fdd.schedule_length == central.length
    for a, b in zip(fdd.schedule.slots, central.slots):
        assert sorted(a.links) == sorted(b.links)


@pytest.mark.parametrize("density", [1000.0, 10000.0])
def test_fdd_matches_greedy_on_uniform(density, paper_config):
    scenario = uniform_scenario(density, rep=0, seed=99)
    central = greedy_physical(scenario.links, scenario.network.model)
    fdd = fdd_on_network(scenario.network, scenario.links, paper_config, rng=2)
    assert fdd.schedule_length == central.length
    for a, b in zip(fdd.schedule.slots, central.slots):
        assert sorted(a.links) == sorted(b.links)


@pytest.mark.parametrize("runtime_cls", [FastRuntime, StepwiseRuntime])
@pytest.mark.parametrize(
    "scenario_fn, density",
    [(grid_scenario, 1000.0), (grid_scenario, 5000.0), (uniform_scenario, 1000.0)],
    ids=["grid-1000", "grid-5000", "uniform-1000"],
)
def test_fdd_matches_greedy_in_hashed_order(scenario_fn, density, runtime_cls, paper_config):
    """Theorem 4 needs unique IDs only: numbered by their hash, the nodes
    make FDD realize the ``"hashed"`` order, in closed form and step by step."""
    scenario = scenario_fn(density, rep=0, seed=99)
    network, links = scenario.network, scenario.links
    # rank[v]: node v's position in increasing hash order — a unique ID
    # below n that keeps the hash's order and fits ``id_bits``.
    rank = np.argsort(np.argsort(hashed_ids(np.arange(network.n_nodes))))
    assert network.n_nodes <= 1 << paper_config.id_bits
    renamed = dataclasses.replace(links, ids=rank[links.heads])
    runtime = runtime_cls.for_network(network, paper_config, ids=rank)
    fdd = run_fdd(renamed, runtime, paper_config, rng=1)
    central = greedy_physical(links, network.model, ordering="hashed")
    assert fdd.terminated
    assert fdd.schedule_length == central.length
    for a, b in zip(fdd.schedule.slots, central.slots):
        assert sorted(a.links) == sorted(b.links)
    assert (fdd.resolve_calls == 0) == (runtime_cls is FastRuntime)  # closed form


def test_fdd_schedule_passes_independent_verification(paper_config):
    scenario = grid_scenario(2500.0, rep=1, seed=7)
    fdd = fdd_on_network(scenario.network, scenario.links, paper_config, rng=3)
    report = verify_schedule(fdd.schedule, scenario.network.model)
    assert report.ok


def test_afdd_matches_fdd_schedule_with_fewer_steps(paper_config):
    """The AFDD extension preserves the schedule and cuts election cost."""
    from repro.core.afdd import afdd_on_network

    scenario = grid_scenario(2500.0, rep=0, seed=11)
    fdd = fdd_on_network(scenario.network, scenario.links, paper_config, rng=4)
    afdd = afdd_on_network(scenario.network, scenario.links, paper_config, rng=4)
    assert afdd.schedule_length == fdd.schedule_length
    for a, b in zip(afdd.schedule.slots, fdd.schedule.slots):
        assert sorted(a.links) == sorted(b.links)
    assert afdd.tally.scream_slots < fdd.tally.scream_slots


def test_afdd_tally_structure(paper_config):
    """AFDD books one full election per slot plus cheap refreshes."""
    from repro.core.afdd import AFDD_REFRESH_SCREAMS, afdd_on_network

    scenario = grid_scenario(5000.0, rep=0, seed=13)
    afdd = afdd_on_network(scenario.network, scenario.links, paper_config, rng=8)
    fdd = fdd_on_network(scenario.network, scenario.links, paper_config, rng=8)
    # Same number of selection events, far fewer full elections.
    assert afdd.tally.elections < fdd.tally.elections
    assert afdd.tally.steps == fdd.tally.steps
    assert afdd.tally.rounds == fdd.tally.rounds
    # Scream volume sits strictly between "refresh only" and FDD's.
    assert afdd.tally.scream_slots < fdd.tally.scream_slots
    min_slots = paper_config.k * AFDD_REFRESH_SCREAMS * afdd.tally.steps
    assert afdd.tally.scream_slots > min_slots
