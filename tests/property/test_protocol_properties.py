"""Property tests on the distributed protocols themselves."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.routing.demand import aggregate_demand
from repro.routing.forest import build_routing_forest
from repro.routing.gateways import planned_gateways
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.links import forest_link_set
from repro.scheduling.metrics import verify_schedule
from repro.topology.network import grid_network
from repro.util.rng import spawn


@st.composite
def grid_protocol_case(draw):
    """A small grid scenario with random demands and a protocol config."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    side = draw(st.sampled_from([3, 4]))
    density = draw(st.sampled_from([1000.0, 3000.0, 8000.0]))
    network = grid_network(side, side, density_per_km2=density)
    gws = planned_gateways(side, side, 1)
    rng = np.random.default_rng(seed)
    forest = build_routing_forest(network.comm_adj, gws, rng=rng)
    demand = rng.integers(0, 4, size=side * side)  # zero demands too
    demand[gws] = 0
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    p = draw(st.sampled_from([0.2, 0.5, 0.9]))
    config = ProtocolConfig(k=6, id_bits=5, p_active=p)
    return network, links, config, seed


@given(grid_protocol_case())
@settings(max_examples=25, deadline=None)
def test_pdd_schedule_valid_and_terminates(case):
    network, links, config, seed = case
    runtime = FastRuntime.for_network(network, config)
    result = run_pdd(links, runtime, config, rng=spawn(seed, "pdd"))
    assert result.terminated
    report = verify_schedule(result.schedule, network.model)
    assert report.ok
    assert result.schedule_length == len(result.round_records)
    assert result.schedule_length <= links.total_demand


@given(grid_protocol_case())
@settings(max_examples=15, deadline=None)
def test_fdd_equals_greedy_physical(case):
    """Theorem 4, property-tested over random small scenarios."""
    network, links, config, seed = case
    runtime = FastRuntime.for_network(network, config)
    result = run_fdd(links, runtime, config, rng=spawn(seed, "fdd"))
    central = greedy_physical(links, network.model, ordering="id")
    assert result.schedule_length == central.length
    for ours, theirs in zip(result.schedule.slots, central.slots):
        assert sorted(ours.links) == sorted(theirs.links)


@given(grid_protocol_case())
@settings(max_examples=15, deadline=None)
def test_fdd_deterministic_in_protocol_rng(case):
    """FDD is fully deterministic: the protocol rng must not matter."""
    network, links, config, _ = case
    a = run_fdd(links, FastRuntime.for_network(network, config), config, rng=1)
    b = run_fdd(links, FastRuntime.for_network(network, config), config, rng=2)
    assert a.schedule_length == b.schedule_length
    for sa, sb in zip(a.schedule.slots, b.schedule.slots):
        assert sorted(sa.links) == sorted(sb.links)
    assert a.tally.as_dict() == b.tally.as_dict()
