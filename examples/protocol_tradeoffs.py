"""PDD vs FDD vs AFDD: the schedule-quality / computation-time trade-off.

The paper's central engineering trade-off: FDD reproduces the centralized
schedule exactly but pays a full leader election per tried link; PDD selects
actives with local coin flips — several times faster, somewhat longer
schedules, and sensitive to the activation probability p.  The AFDD
extension (not in the paper; see DESIGN.md) keeps FDD's schedule while
amortizing election cost.

This example runs all three on the same 64-node grid scenario and prints
quality, step counts, priced execution time, and the clock-skew bound each
protocol tolerates for a 5%-of-60 s recompute budget.  Last, it schedules
uplink and downlink together: a link set that is not a forest, which the
forest protocols serve in waves, one link per node per wave.

Run:  python examples/protocol_tradeoffs.py
"""

import numpy as np

from repro import (
    LinkSet,
    ProtocolConfig,
    TimingModel,
    greedy_physical,
    improvement_over_linear,
    verify_schedule,
)
from repro.analysis.tables import TextTable
from repro.core.afdd import afdd_on_network
from repro.core.arbitrary import run_arbitrary_link_set
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.experiments.common import grid_scenario
from repro.experiments.exec_time import skew_tolerance

SEED = 11


def main() -> None:
    scenario = grid_scenario(2500.0, rep=0, seed=SEED)
    print(
        f"scenario: 64-node grid, TD={scenario.total_demand}, "
        f"ID(GS)={scenario.network.interference_diameter():.0f}"
    )
    timing = TimingModel()

    runs = []
    config = ProtocolConfig()
    runs.append(("FDD", fdd_on_network(scenario.network, scenario.links, config, rng=1)))
    runs.append(
        ("AFDD (ext.)", afdd_on_network(scenario.network, scenario.links, config, rng=1))
    )
    for p in (0.2, 0.6, 0.8):
        result = pdd_on_network(
            scenario.network, scenario.links, config.with_p(p), rng=1
        )
        runs.append((f"PDD p={p:g}", result))

    table = TextTable(
        [
            "protocol",
            "schedule slots",
            "improvement (%)",
            "SCREAM slots",
            "exec time (s)",
            "skew tolerance (us)",
        ],
        title="Distributed scheduler trade-offs (one 64-node instance)",
    )
    for name, result in runs:
        assert verify_schedule(result.schedule, scenario.network.model).ok
        table.add_row(
            name,
            result.schedule_length,
            f"{improvement_over_linear(result.schedule):.1f}",
            result.tally.scream_slots,
            f"{timing.execution_time(result.tally):.2f}",
            f"{skew_tolerance(result.tally) * 1e6:.0f}",
        )
    print(table.render())
    print(
        "\nReading: FDD/AFDD give the centralized-quality schedule; PDD "
        "trades a few improvement points for several-fold faster "
        "computation and an order of magnitude more clock-skew headroom."
    )

    # Uplink and downlink: every parent also heads a link to each child.
    up = scenario.links
    both = LinkSet(
        heads=np.concatenate([up.heads, up.tails]),
        tails=np.concatenate([up.tails, up.heads]),
        demand=np.concatenate([up.demand, up.demand]),
        ids=np.concatenate([up.ids, up.ids + int(up.ids.max()) + 1]),
    )
    waves = run_arbitrary_link_set(scenario.network, both, config, rng=1)
    assert verify_schedule(waves.schedule, scenario.network.model).ok
    assert (waves.schedule.allocations() >= both.demand).all()
    central = greedy_physical(both, scenario.network.model).length
    print(
        f"\nUplink + downlink ({both.n_links} links, not a forest): FDD in "
        f"{len(waves.waves)} waves, {waves.schedule.length} slots "
        f"(centralized GreedyPhysical over all links: {central})"
    )


if __name__ == "__main__":
    main()
