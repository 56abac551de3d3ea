"""End-to-end protocol behaviour on the paper's 64-node scenarios."""

import numpy as np
import pytest

from repro.core.config import FaultConfig
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.core.timing import TimingModel
from repro.experiments.common import grid_scenario
from repro.scheduling import improvement_over_linear, verify_schedule


@pytest.fixture(scope="module")
def scenario():
    return grid_scenario(2500.0, rep=0, seed=31)


@pytest.fixture(scope="module")
def fdd_result(scenario, paper_config):
    return fdd_on_network(scenario.network, scenario.links, paper_config, rng=1)


@pytest.fixture(scope="module")
def pdd_result(scenario, paper_config):
    return pdd_on_network(
        scenario.network, scenario.links, paper_config.with_p(0.2), rng=1
    )


def test_both_protocols_terminate_with_valid_schedules(
    scenario, fdd_result, pdd_result
):
    for result in (fdd_result, pdd_result):
        assert result.terminated
        assert verify_schedule(result.schedule, scenario.network.model).ok


def test_every_round_adds_exactly_one_slot(scenario, fdd_result, pdd_result):
    for result in (fdd_result, pdd_result):
        assert len(result.round_records) == result.schedule_length
        for record, slot in zip(result.round_records, result.schedule.slots):
            heads = scenario.links.heads[slot.links]
            assert record.members == tuple(sorted(heads.tolist()))


def test_every_slot_contains_its_controller(scenario, paper_config):
    result = fdd_on_network(scenario.network, scenario.links, paper_config, rng=2)
    link_of_node = scenario.links.link_of_node
    for record, slot in zip(result.round_records, result.schedule.slots):
        assert record.controllers  # some controller exists every round
        for controller in record.controllers:
            assert link_of_node[controller] in slot.links


def test_controllers_run_consecutive_slots_until_demand_met(
    scenario, paper_config
):
    result = fdd_on_network(scenario.network, scenario.links, paper_config, rng=3)
    # Controller sequence: maximal runs of the same controller.  A run ends
    # exactly when the controller's demand is met, so its length equals the
    # demand *remaining* when it took control (its link may have been
    # allocated into earlier controllers' slots already).
    runs: list[tuple[int, int, int]] = []  # (controller, start_round, length)
    for round_idx, record in enumerate(result.round_records):
        c = record.controllers[0]
        if runs and runs[-1][0] == c:
            controller, start, length = runs[-1]
            runs[-1] = (controller, start, length + 1)
        else:
            runs.append((c, round_idx, 1))
    link_of_node = scenario.links.link_of_node
    controllers_seen = [c for c, _, _ in runs]
    assert len(set(controllers_seen)) == len(controllers_seen)  # no re-control
    for controller, start, run_len in runs:
        link = int(link_of_node[controller])
        already = sum(
            1 for slot in result.schedule.slots[:start] if link in slot.links
        )
        assert run_len == int(scenario.links.demand[link]) - already
    # FDD controls in decreasing ID order.
    assert controllers_seen == sorted(controllers_seen, reverse=True)


def test_pdd_quality_below_fdd_but_reasonable(scenario, fdd_result, pdd_result):
    fdd_imp = improvement_over_linear(fdd_result.schedule)
    pdd_imp = improvement_over_linear(pdd_result.schedule)
    assert pdd_imp <= fdd_imp
    assert pdd_imp > 0.0  # still clearly better than serialized


def test_pdd_runs_faster_than_fdd(fdd_result, pdd_result):
    timing = TimingModel()
    assert timing.execution_time(pdd_result.tally) < timing.execution_time(
        fdd_result.tally
    )
    assert pdd_result.tally.scream_slots < fdd_result.tally.scream_slots


def test_demand_exactly_satisfied_no_overshoot(scenario, fdd_result):
    """FDD allocates exactly demand(e) slots per link, never more."""
    allocations = fdd_result.schedule.allocations()
    assert np.array_equal(allocations, scenario.links.demand)


def test_fault_injection_degrades_but_is_detected(scenario, paper_config):
    """Severe carrier-sense faults must produce *detectable* damage."""
    faulty = fdd_on_network(
        scenario.network,
        scenario.links,
        paper_config,
        faults=FaultConfig(scream_miss_prob=0.4),
        rng=5,
    )
    report = verify_schedule(faulty.schedule, scenario.network.model)
    # Either the run degraded observably (infeasible slots / unmet demand /
    # multi-winner elections) or it got lucky — but with miss_prob=0.4 on a
    # 64-node run luck is effectively impossible.
    degraded = (
        not report.ok
        or faulty.tally.multi_winner_elections > 0
        or not faulty.terminated
    )
    assert degraded
