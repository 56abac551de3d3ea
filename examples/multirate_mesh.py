"""Adaptive multi-rate links: spend the SINR margin the bool left behind.

Every scheduler in this repo historically answered feasibility with a
bool — SINR >= beta, one packet per slot — yet on the paper's 8x8 grid
the standalone link margins span ~1.2-3.4x beta: almost half the links
could decode a denser modulation.  This example threads a
``RateTable`` (DESIGN.md §12) through the closed loop:

* an MCS ladder maps SINR thresholds to packets-per-slot
  (``RateTable.geometric``: 1 pkt at beta, 2 at 2 beta, 4 at 4 beta,
  with multiplicative upgrade hysteresis so tiers never oscillate);
* slot memberships stay the paper's beta-threshold feasibility — rates
  are a serving-layer annotation floored at 1 packet for scheduled
  members, so the degenerate one-tier table reproduces the fixed-rate
  engine **bit-for-bit** (asserted below);
* ``greedy_rate`` schedules *for* rate: a link joins a slot only when
  the slot's delivered-packet rate strictly increases.

The punchline this example asserts: annotating rates onto fixed FDD
schedules barely helps (FDD packs slots until the margin is spent), but
scheduling for rate lifts the realized service rate well above
1 pkt/play and out-delivers fixed-rate FDD at and beyond its knee.

Run:  python examples/multirate_mesh.py        (~1-2 minutes)
"""

import numpy as np

from repro import (
    EpochConfig,
    PoissonArrivals,
    RateTable,
    aggregate_demand,
    build_routing_forest,
    distributed_scheduler,
    fdd_on_network,
    forest_link_set,
    grid_network,
    planned_gateways,
    rate_aware_scheduler,
    run_epochs,
    standalone_rates,
    summarize_trace,
    uniform_node_demand,
)
from repro.analysis.tables import TextTable
from repro.util.rng import spawn

SEED = 20080617
KNEE = 0.019  # E7's measured fixed-rate FDD knee on this grid
EPOCHS = 8
T = 300


def build_mesh():
    network = grid_network(8, 8, density_per_km2=1000.0)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(SEED, "f"))
    demand = uniform_node_demand(network.n_nodes, spawn(SEED, "d"), gateways=gateways)
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return network, gateways, links


def run_point(network, gateways, links, rate, scheduler, rate_table):
    config = EpochConfig(
        epoch_slots=T,
        n_epochs=EPOCHS,
        divergence_factor=4.0,
        rate_table=rate_table,
    )
    generator = PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(SEED, "poisson")
    )
    trace = run_epochs(links, generator, scheduler, config, model=network.model)
    return summarize_trace(trace, rate), trace


def main() -> None:
    network, gateways, links = build_mesh()
    table = RateTable.geometric(beta=network.model.radio.beta)

    # ---- What the ladder sees on this grid: standalone tiers per link.
    rates = standalone_rates(links, network.model, table)
    tiers, counts = np.unique(rates, return_counts=True)
    print(f"MCS ladder on the 8x8 grid (beta={network.model.radio.beta:g}): "
          f"thresholds {table.thresholds.tolist()}, "
          f"rates {table.rates.tolist()} pkt/slot")
    for tier_rate, count in zip(tiers, counts):
        print(f"  {count:2d}/{links.n_links} links decode alone at "
              f"{tier_rate} pkt/slot")
    assert int(rates.max()) > 1, "the grid should have multi-rate headroom"

    # ---- The degenerate table is the fixed-rate engine, bit for bit.
    fdd = lambda: distributed_scheduler(network, fdd_on_network, seed=spawn(SEED, "fdd"))
    _, bare = run_point(network, gateways, links, KNEE, fdd(), None)
    _, one_tier = run_point(
        network, gateways, links, KNEE, fdd(), RateTable.degenerate(network.model.radio.beta)
    )
    np.testing.assert_array_equal(
        bare.queues.delay_array(), one_tier.queues.delay_array()
    )
    np.testing.assert_array_equal(bare.queues.backlog, one_tier.queues.backlog)
    assert one_tier.queues.served_total == one_tier.queues.plays_total
    print("\n==> RateTable.degenerate reproduces the fixed-rate engine "
          "bit-for-bit (delays, backlogs, one packet per play).\n")

    # ---- Fixed vs annotated vs rate-aware, at the knee and past it.
    contracts = [
        ("FDD fixed-rate", fdd, None),
        ("FDD multi-rate", fdd, table),
        ("GreedyRate multi-rate", lambda: rate_aware_scheduler(network.model, table), table),
    ]
    out = TextTable(
        ["contract", "lambda", "throughput (pkt/slot)", "service rate (pkt/play)",
         "mean delay", "backlog growth/epoch", "stable"],
        title=f"Multi-rate links at and past the fixed-rate knee "
              f"(lambda*={KNEE:g}, {EPOCHS} epochs x {T} slots)",
    )
    points = {}
    for name, make_scheduler, contract_table in contracts:
        for rate in (KNEE, 1.4 * KNEE):
            point, _ = run_point(
                network, gateways, links, rate, make_scheduler(), contract_table
            )
            points[(name, rate)] = point
            out.add_row(
                name,
                f"{rate:g}",
                f"{point.throughput:.3f}",
                f"{point.mean_service_rate:.2f}",
                f"{point.mean_delay:.1f}",
                f"{point.backlog_slope:+.1f}",
                "yes" if point.stable else "NO",
            )
    print(out.render())

    for rate in (KNEE, 1.4 * KNEE):
        fixed = points[("FDD fixed-rate", rate)]
        greedy = points[("GreedyRate multi-rate", rate)]
        assert fixed.mean_service_rate == 1.0
        assert greedy.mean_service_rate > 1.05, (
            f"rate-aware scheduling should realize the MCS headroom, got "
            f"{greedy.mean_service_rate:.2f} pkt/play"
        )
        assert greedy.throughput >= fixed.throughput, (
            f"rate-aware should out-deliver fixed-rate at lambda={rate:g}: "
            f"{greedy.throughput:.3f} vs {fixed.throughput:.3f}"
        )
    greedy_knee = points[("GreedyRate multi-rate", KNEE)]
    print(
        f"\n==> at the fixed-rate knee, scheduling for rate serves "
        f"{greedy_knee.mean_service_rate:.2f} pkt/play and delivers "
        f"{greedy_knee.throughput:.3f} pkt/slot vs the fixed contract's "
        f"{points[('FDD fixed-rate', KNEE)].throughput:.3f} — the margin the "
        f"bool was leaving on the table."
    )


if __name__ == "__main__":
    main()
