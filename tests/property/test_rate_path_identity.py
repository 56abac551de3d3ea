"""Schedule-wide rate passes ≡ the per-slot passes they replaced.

``greedy_rate`` replicates a built slot by run length, ``patch_schedule``
reads cached rates, per-insertion grants and final capacity from one batched
SINR call each, and ``RateAnnotator`` evaluates a round in one call.  All
are host-speed shortcuts: the slot lists, tiers, rates and hysteresis memory
must equal what the per-slot references in ``tests/conftest.py`` produce.
"""

import sys
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.phy.interference import SlotSinrMemo
from repro.phy.radio import RateTable
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.greedy_rate import greedy_rate, standalone_rates
from repro.topology.network import uniform_network
from repro.traffic.epoch import RateAnnotator
from repro.traffic.incremental import patch_schedule
from repro.util.ranges import join
from tests.conftest import (
    StepwiseRateAnnotator,
    make_links,
    stepwise_greedy_rate,
    stepwise_patch_schedule,
    stepwise_standalone_rates,
)

def _ladder(beta, hysteresis):
    """A 3-tier ladder at x1.5 SINR per tier, finer than
    ``RateTable.geometric``'s x2 so that upgrades need the margin."""
    return RateTable(
        thresholds=beta * 1.5 ** np.arange(3), rates=np.array([1, 2, 4]), hysteresis=hysteresis
    )


TABLES = {
    "degenerate": lambda beta: RateTable.degenerate(beta),
    "geometric": lambda beta: RateTable.geometric(beta),
    "hysteresis": lambda beta: _ladder(beta, 1.3),
    # A base tier above the radio's β: links admitted by the feasibility
    # screen can sit *below* tier 0 and ride the base-tier floor.
    "raised-base": lambda beta: RateTable(
        thresholds=np.array([1.5, 2.5, 6.0]) * beta, rates=np.array([2, 3, 7])
    ),
}


@pytest.fixture(scope="module")
def meshes(grid64):
    """The paper's planned grid and an unplanned heterogeneous deployment."""
    unplanned = uniform_network(40, density_per_km2=600, rng=3)
    return [
        (grid64, make_links(grid64, 4, seed=7)[1]),
        (unplanned, make_links(unplanned, 2, seed=23)[1]),
    ]


def slot_lists(schedule):
    return None if schedule is None else [slot.links for slot in schedule.slots]


def outcome(fn, *args, **kwargs):
    """Slot lists, ``None``, or the ``ValueError`` text — whichever ``fn`` gives."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as error:
        return f"ValueError: {error}"
    return result if result is None or isinstance(result, list) else slot_lists(result)


@st.composite
def demand_case(draw):
    mesh = draw(st.integers(0, 1))
    seed = draw(st.integers(0, 2**31 - 1))
    table = draw(st.sampled_from(sorted(TABLES)))
    # Scale 1 keeps every run at length one (any grant exhausts a member);
    # large scales make long runs that end when the smallest member runs out.
    scale = draw(st.sampled_from([1, 3, 12, 60]))
    sparsity = draw(st.sampled_from([0.0, 0.5, 0.9]))
    budgeted = draw(st.booleans())
    return mesh, seed, table, scale, sparsity, budgeted


def build(meshes, case):
    mesh, seed, table_name, scale, sparsity, budgeted = case
    network, links = meshes[mesh]
    rng = np.random.default_rng(seed)
    model = network.model
    if budgeted:
        # Up to ~3x the noise floor: costs tiers everywhere and makes some
        # links infeasible even alone.
        model = model.with_budget(rng.random(network.n_nodes) * network.radio.noise_mw * 3)
    demand = rng.integers(1, scale + 1, links.n_links)
    demand[rng.random(links.n_links) < sparsity] = 0
    table = TABLES[table_name](network.radio.beta)
    return rng, model, replace(links, demand=demand), table


@given(demand_case())
# On the grid, candidates that fail a what-if sit behind the one admitted
# (greedy_rate drops 260 of their 1 828 later what-if rows).
@example(case=(0, 1, "geometric", 3, 0.0, False))
@settings(max_examples=60, deadline=None)
def test_greedy_rate_slot_lists_match_the_slot_by_slot_build(meshes, case):
    _, model, links, table = build(meshes, case)
    assert np.array_equal(
        standalone_rates(links, model, table),
        stepwise_standalone_rates(links, model, table),
    )
    assert outcome(greedy_rate, links, model, table) == outcome(
        stepwise_greedy_rate, links, model, table
    )


@given(demand_case(), st.sampled_from([None, 40, 400]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_patch_schedule_slot_lists_match_the_slot_by_slot_patch(
    meshes, case, max_length, rate_blind
):
    rng, model, links, table = build(meshes, case)
    try:
        cached = greedy_physical(links, model) if rate_blind else greedy_rate(links, model, table)
    except ValueError:
        return  # a link infeasible alone: nothing to cache (covered above)
    # Demand drifts: some links empty, some shrink, some grow, some appear.
    drift = rng.integers(-4, 9, links.n_links) * (rng.random(links.n_links) < 0.6)
    moved = replace(links, demand=np.maximum(links.demand + drift, 0))
    kwargs = dict(max_length=max_length, table=None if rate_blind else table)
    assert outcome(patch_schedule, cached, moved, model, **kwargs) == outcome(
        stepwise_patch_schedule, cached, moved, model, **kwargs
    )
    # The cached schedule is never mutated.
    assert slot_lists(cached) == slot_lists(
        greedy_physical(links, model) if rate_blind else greedy_rate(links, model, table)
    )


def run_lengths(schedule):
    return [len(list(run)) for _, run in groupby(slot.links for slot in schedule.slots)]


def test_unit_demand_builds_every_slot_once(meshes):
    """``repeat`` is 1 for every slot: any grant exhausts every member."""
    network, links = meshes[0]
    links = replace(links, demand=np.ones(links.n_links, dtype=np.int64))
    table = RateTable.geometric(network.radio.beta)
    schedule = greedy_rate(links, network.model, table)
    assert set(run_lengths(schedule)) == {1}
    assert slot_lists(schedule) == stepwise_greedy_rate(links, network.model, table)


def test_runs_end_exactly_when_a_member_runs_out(meshes, monkeypatch):
    """Heavy demand: long runs, each cut where its smallest member exhausts
    mid-run — and never more distinct slots than links."""
    network, links = meshes[0]
    demand = np.arange(links.n_links) % 7 * 9 + 5
    links = replace(links, demand=demand)
    table = RateTable.geometric(network.radio.beta)
    schedule = greedy_rate(links, network.model, table)
    runs = run_lengths(schedule)
    assert max(runs) > 1 and len(runs) < schedule.length
    assert len(runs) <= links.n_links
    # Each run is built once — the replication is exact, not merely safe.
    module = sys.modules["repro.scheduling.greedy_rate"]
    built = []
    build = module._build_slot
    monkeypatch.setattr(module, "_build_slot", lambda *args: built.append(1) or build(*args))
    greedy_rate(links, network.model, table)
    assert len(built) == len(runs)
    assert slot_lists(schedule) == stepwise_greedy_rate(links, network.model, table)


def test_fresh_slots_grant_the_base_tier_floor(meshes):
    """A link that passes the feasibility screen below the table's tier 0
    has standalone rate 0, yet a fresh slot serves it at the base rate."""
    network, links = meshes[1]
    table = TABLES["raised-base"](network.radio.beta)
    model = network.model
    floored = np.flatnonzero(standalone_rates(links, model, table) == 0)
    assert floored.size  # screen passed (they are forest links), tier 0 missed
    cached = greedy_rate(links, model, table)
    demand = links.demand.copy()
    demand[floored] += 40  # far more than the cached slots can absorb
    moved = replace(links, demand=demand)
    # (A finite window, so a zero-packet grant could not loop forever.)
    patched = patch_schedule(cached, moved, model, max_length=5000, table=table)
    assert slot_lists(patched) == stepwise_patch_schedule(
        cached, moved, model, max_length=5000, table=table
    )
    singletons = [slot.links[0] for slot in patched.slots if len(slot) == 1]
    assert set(floored) & set(singletons)


def test_infeasible_alone_raises_the_same_error(meshes):
    network, links = meshes[0]
    drowned = network.model.with_budget(
        np.full(network.n_nodes, 1e6 * network.radio.noise_mw)
    )
    table = RateTable.geometric(network.radio.beta)
    with pytest.raises(ValueError, match="infeasible even alone") as new:
        greedy_rate(links, drowned, table)
    with pytest.raises(ValueError, match="infeasible even alone") as old:
        stepwise_greedy_rate(links, drowned, table)
    assert str(new.value) == str(old.value)
    # Patching onto such a model abandons the patch; it does not raise.
    cached = greedy_rate(links, network.model, table)
    grown = replace(links, demand=links.demand + 50)
    assert patch_schedule(cached, grown, drowned, table=table) is None
    assert stepwise_patch_schedule(cached, grown, drowned, table=table) is None


@given(demand_case(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_annotator_tiers_rates_and_memory_match_slot_by_slot(meshes, case, n_rounds):
    """Links sit in several slots of one round, so the tier a link is granted
    in one slot is the hysteresis memory of the next — with rounds evaluated
    in one call the memory must still advance slot by slot."""
    rng, model, links, table = build(meshes, case)
    try:
        schedule = greedy_rate(links, model, table)
    except ValueError:
        return
    batched = RateAnnotator(SlotSinrMemo(model, links.heads, links.tails), table)
    stepwise = StepwiseRateAnnotator(links, model, table)
    slots = [slot.as_array() for slot in schedule.slots] + [np.empty(0, dtype=np.intp)]
    for _ in range(n_rounds):
        # Later rounds thin the slots out: SINRs rise, tiers must climb
        # through the hysteresis margin, not jump.
        round_slots = [idx[rng.random(idx.size) < 0.8] for idx in slots]
        got = batched.annotate(*join(round_slots))
        want = map(np.concatenate, stepwise.annotate(round_slots))
        for got_values, want_values in zip(got, want):
            assert np.array_equal(got_values, want_values)
            assert got_values.dtype == want_values.dtype
        assert np.array_equal(batched._prev, stepwise._prev)


def test_annotator_memory_advances_within_a_round(meshes):
    """The case the batched round must not flatten: one link in many slots
    of a round, under a table whose upgrades need margin — tiers are granted
    an occurrence at a time, and the third must see what the second got."""
    network, links = meshes[0]
    links = replace(links, demand=np.full(links.n_links, 20))
    for hysteresis in (1.15, 1.3):
        table = _ladder(network.radio.beta, hysteresis)
        schedule = greedy_rate(links, network.model, table)
        slots = [slot.as_array() for slot in schedule.slots]
        assert np.bincount(np.concatenate(slots)).max() >= 3
        sinrs = SlotSinrMemo(network.model, links.heads, links.tails)
        batched = RateAnnotator(sinrs, table)
        stepwise = StepwiseRateAnnotator(links, network.model, table)
        for round_slots in (slots, slots[::-1], slots[::2]):
            got = batched.annotate(*join(round_slots))
            want = map(np.concatenate, stepwise.annotate(round_slots))
            assert all(map(np.array_equal, got, want))
            assert np.array_equal(batched._prev, stepwise._prev)
