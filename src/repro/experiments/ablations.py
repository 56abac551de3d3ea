"""Ablations over the design choices DESIGN.md calls out.

* A1 — truncated SCREAM (K below the interference diameter): quantifies
  multi-leader elections and schedule-feasibility violations, demonstrating
  *why* ``K >= ID(GS)`` is required;
* A2 — GreedyPhysical edge orderings: how much the (arbitrary, per the
  approximation bound) edge order matters in practice;
* A3 — the PDD slot-sealing ambiguity: both readings of the paper's
  pseudocode, compared on quality and step cost.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.stats import mean_ci
from repro.analysis.tables import TextTable
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.experiments.common import (
    PAPER_PROTOCOL,
    ExperimentProfile,
    grid_scenario,
    uniform_scenario,
)
from repro.scheduling import (
    EDGE_ORDERINGS,
    greedy_physical,
    improvement_over_linear,
    verify_schedule,
)
from repro.util.rng import spawn


def truncated_k_experiment(
    profile: ExperimentProfile, density: float = 1000.0
) -> TextTable:
    """A1 — protocol health as K drops below the interference diameter."""
    table = TextTable(
        [
            "K",
            "ID(GS)",
            "schedule length",
            "infeasible slots",
            "unmet-demand links",
            "multi-winner elections",
        ],
        title="Truncated SCREAM: FDD under K < ID(GS) (grid, low density)",
    )
    scenario = grid_scenario(density, 0, seed=profile.seed)
    net_id = int(scenario.network.interference_diameter())
    for k in range(1, max(net_id, 2) + 2):
        config = replace(PAPER_PROTOCOL, k=k, max_rounds=4 * scenario.total_demand)
        result = fdd_on_network(
            scenario.network,
            scenario.links,
            config,
            rng=spawn(profile.seed, "trunc", k),
        )
        report = verify_schedule(result.schedule, scenario.network.model)
        table.add_row(
            k,
            net_id,
            result.schedule_length,
            len(report.infeasible_slots),
            len(report.shortfall_links),
            result.tally.multi_winner_elections,
        )
    return table


def orderings_experiment(profile: ExperimentProfile) -> TextTable:
    """A2 — GreedyPhysical quality under different edge orderings."""
    table = TextTable(
        ["scenario"] + [f"{name} (%)" for name in EDGE_ORDERINGS],
        title="GreedyPhysical improvement over serialized schedule by edge "
        "ordering",
    )
    for label, scenario_fn in (("grid", grid_scenario), ("uniform", uniform_scenario)):
        cells: dict[str, list[float]] = {name: [] for name in EDGE_ORDERINGS}
        for density in profile.densities[:: max(1, len(profile.densities) // 3)]:
            for rep in range(profile.repetitions):
                scenario = scenario_fn(density, rep, seed=profile.seed)
                for name in EDGE_ORDERINGS:
                    schedule = greedy_physical(
                        scenario.links, scenario.network.model, ordering=name
                    )
                    cells[name].append(improvement_over_linear(schedule))
        table.add_row(label, *(str(mean_ci(cells[name])) for name in EDGE_ORDERINGS))
    return table


def uncompensated_skew_experiment(
    profile: ExperimentProfile, density: float = 2500.0, guard_s: float = 4e-6
) -> TextTable:
    """A4 — what uncompensated clock skew does to the computation.

    The compensated design (the paper's) stretches every step by 2x the
    skew bound and only pays *time*; this ablation fixes the guard and grows
    the actual skew past it, counting lost sensitivity edges, split
    elections, and verifier-detected schedule damage.
    """
    from repro.core.fast_runtime import FastRuntime
    from repro.core.fdd import run_fdd
    from repro.core.skew import critical_skew_estimate, degrade_sensitivity_graph
    from repro.core.timing import TimingModel
    from repro.simulation.clock import ClockModel

    timing = TimingModel(scream_bytes=PAPER_PROTOCOL.smbytes)
    burst_s = 8.0 * PAPER_PROTOCOL.smbytes / timing.bitrate_bps
    scenario = grid_scenario(density, 0, seed=profile.seed)
    network = scenario.network

    table = TextTable(
        [
            "skew bound (s)",
            "GS edges lost (%)",
            "multi-winner elections",
            "infeasible slots",
            "unmet-demand links",
        ],
        title=f"Uncompensated skew (guard fixed at {guard_s:g} s; "
        f"critical skew {critical_skew_estimate(guard_s):g} s)",
    )
    for factor in (0.5, 1.0, 2.0, 8.0, 64.0):
        skew = critical_skew_estimate(guard_s) * factor
        clock = ClockModel(
            network.n_nodes, skew, spawn(profile.seed, "skew-clock", factor)
        )
        degraded = degrade_sensitivity_graph(
            network.sens_adj, clock, burst_s, guard_s
        )
        config = replace(
            PAPER_PROTOCOL, max_rounds=4 * scenario.total_demand + 20
        )
        runtime = FastRuntime(
            model=network.model,
            sens_adj=degraded.sens_adj,
            ids=np.arange(network.n_nodes),
            config=config,
        )
        result = run_fdd(
            scenario.links, runtime, config, rng=spawn(profile.seed, "skew", factor)
        )
        report = verify_schedule(result.schedule, network.model)
        table.add_row(
            f"{skew:g}",
            f"{100 * degraded.loss_fraction:.1f}",
            result.tally.multi_winner_elections,
            len(report.infeasible_slots),
            len(report.shortfall_links),
        )
    return table


def seal_rule_experiment(
    profile: ExperimentProfile, density: float = 5000.0
) -> TextTable:
    """A3 — PDD under both readings of the slot-sealing pseudocode.

    ``drain`` (default): the slot seals once no DORMANT node remains.
    ``idle-step``: the slot seals after any step that selected no active.
    """
    table = TextTable(
        [
            "p_active",
            "improvement drain (%)",
            "improvement idle-step (%)",
            "steps drain",
            "steps idle-step",
        ],
        title="PDD slot-sealing rule ablation (grid)",
    )
    for p in profile.pdd_probabilities:
        improvements: dict[bool, list[float]] = {False: [], True: []}
        steps: dict[bool, list[int]] = {False: [], True: []}
        for rep in range(profile.repetitions):
            scenario = grid_scenario(density, rep, seed=profile.seed)
            for idle_seal in (False, True):
                config = replace(
                    PAPER_PROTOCOL, p_active=p, seal_on_idle_step=idle_seal
                )
                result = pdd_on_network(
                    scenario.network,
                    scenario.links,
                    config,
                    rng=spawn(profile.seed, "seal", p, rep, idle_seal),
                )
                improvements[idle_seal].append(
                    improvement_over_linear(result.schedule)
                )
                steps[idle_seal].append(result.tally.total_steps)
        table.add_row(
            f"{p:g}",
            str(mean_ci(improvements[False])),
            str(mean_ci(improvements[True])),
            f"{np.mean(steps[False]):.0f}",
            f"{np.mean(steps[True]):.0f}",
        )
    return table
