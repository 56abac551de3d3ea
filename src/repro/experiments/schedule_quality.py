"""Schedule-length experiments (the paper's Figures 6 and 7).

Percentage schedule-length improvement over the serialized schedule, as a
function of node density, for the centralized GreedyPhysical baseline, FDD,
and PDD at several activation probabilities.  Expected qualitative result
(matching the paper): FDD tracks the centralized algorithm exactly; PDD
trails by roughly 5-15 percentage points, with its best probability at the
low end in the planned scenario.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.stats import mean_ci
from repro.analysis.tables import TextTable
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.experiments.common import (
    PAPER_PROTOCOL,
    ExperimentProfile,
    Scenario,
    grid_scenario,
    uniform_scenario,
)
from repro.scheduling import greedy_physical, improvement_over_linear, verify_schedule
from repro.util.rng import spawn


def _run_cell(
    scenario: Scenario, algorithm: str, p_active: float, seed_key: tuple
) -> float:
    """Improvement-over-linear of one algorithm on one scenario instance."""
    if algorithm == "central":
        schedule = greedy_physical(scenario.links, scenario.network.model)
    elif algorithm == "fdd":
        result = fdd_on_network(
            scenario.network, scenario.links, PAPER_PROTOCOL, rng=spawn(*seed_key)
        )
        schedule = result.schedule
    elif algorithm == "pdd":
        config = PAPER_PROTOCOL.with_p(p_active)
        result = pdd_on_network(
            scenario.network, scenario.links, config, rng=spawn(*seed_key)
        )
        schedule = result.schedule
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    report = verify_schedule(schedule, scenario.network.model)
    if not report.ok:
        raise AssertionError(f"{algorithm} produced an invalid schedule: {report}")
    return improvement_over_linear(schedule)


def _schedule_experiment(
    profile: ExperimentProfile,
    scenario_fn: Callable[..., Scenario],
    title: str,
) -> TextTable:
    algorithms: list[tuple[str, str, float]] = [("Centralized", "central", 0.0)]
    algorithms.append(("FDD", "fdd", 0.0))
    for p in profile.pdd_probabilities:
        algorithms.append((f"PDD p={p:g}", "pdd", p))

    table = TextTable(
        ["density (nodes/km^2)"] + [name for name, _, _ in algorithms],
        title=title,
    )
    for density in profile.densities:
        cells = {name: [] for name, _, _ in algorithms}
        for rep in range(profile.repetitions):
            scenario = scenario_fn(density, rep, seed=profile.seed)
            for name, algorithm, p in algorithms:
                value = _run_cell(
                    scenario,
                    algorithm,
                    p,
                    (profile.seed, title, name, int(density), rep),
                )
                cells[name].append(value)
        table.add_row(
            f"{density:g}",
            *(str(mean_ci(cells[name])) for name, _, _ in algorithms),
        )
    return table


def grid_schedule_experiment(profile: ExperimentProfile) -> TextTable:
    """E3 — schedule-length improvement vs density, planned grid (Fig. 6)."""
    return _schedule_experiment(
        profile,
        grid_scenario,
        "Schedule-length improvement over serialized schedule (%) — "
        "planned grid, homogeneous power",
    )


def uniform_schedule_experiment(profile: ExperimentProfile) -> TextTable:
    """E4 — improvement vs density, unplanned uniform placement (Fig. 7)."""
    return _schedule_experiment(
        profile,
        uniform_scenario,
        "Schedule-length improvement over serialized schedule (%) — "
        "unplanned uniform placement, heterogeneous power",
    )
