"""E12 — adaptive multi-rate links: fixed-rate FDD vs rate-aware scheduling.

The seed's serving contract is binary: a scheduled membership forwards one
packet per played slot, whatever SINR headroom the link actually has.  E12
prices that idealization on the paper's 8x8 planned grid by sweeping the
heavy-traffic stability axis (E7) under three contracts:

* **FDD fixed-rate** — the seed baseline: the overhead-priced distributed
  protocol, one packet per play.
* **FDD multi-rate** — the *same* FDD memberships, but serving grants each
  played link the packets of its SINR-selected MCS tier
  (``EpochConfig.rate_table``): the serving-layer gain alone, with schedule
  computation untouched.
* **GreedyRate multi-rate** — rate-aware scheduling end to end
  (:func:`repro.scheduling.greedy_rate.greedy_rate`): slots packed to
  maximize total packets per slot and demand matched in packets, served
  under the same table.  Run as a free centralized oracle, the multi-rate
  analogue of E7's GreedyPhysical row.

The headline is the **knee shift**: how far up the arrival-rate axis the
stability knee moves when link-rate headroom is exploited.  The MCS ladder
comes from the ``MULTIRATE_*`` constants below (see there for the grid
calibration behind them).

Recorded idealization: tier selection is *instantaneous and free* — the
annotator reads each slot's concurrent SINR directly, with hysteresis as
the only adaptation friction.  A real radio probes its way up the ladder
over many packets; E12's multi-rate rows are therefore upper bounds on the
adaptation gain, the same way E7's GreedyPhysical row upper-bounds
centralized scheduling (see DESIGN.md §12).
"""

from __future__ import annotations

from repro.analysis.tables import TextTable
from repro.experiments.common import (
    TRAFFIC_DENSITY,
    ExperimentProfile,
    add_knee_row,
    add_sweep_rows,
    epoch_config,
    finish_obs,
    grid_mesh,
    obs_for,
    paper_fdd,
    poisson_arrivals,
    sweep,
)
from repro.phy.radio import RateTable
from repro.traffic import CONFIRM_SEEDS, rate_aware_scheduler, run_epochs

#: The MCS ladder (repro.phy.radio.RateTable) swept against the seed's
#: fixed-rate contract: 3 tiers, x2 SINR and x2 rate per tier, 1 dB
#: hysteresis margin.  Calibrated to the 8x8 grid at density 1000/km^2,
#: where standalone link margins span ~1.2-3.4x beta: tiers at
#: beta/2beta/4beta give ~45% of links one tier of headroom while the
#: classic 6 dB ladder would never engage.
MULTIRATE_TIERS = 3
MULTIRATE_SINR_STEP = 2.0
MULTIRATE_RATE_STEP = 2.0
MULTIRATE_HYSTERESIS = 1.25


def multirate_experiment(profile: ExperimentProfile) -> TextTable:
    """E12: stability sweep under fixed-rate vs multi-rate serving contracts."""
    network, gateways, links = grid_mesh(profile, 8, 8, "traffic-forest")
    table_mcs = RateTable.geometric(
        network.model.radio.beta,
        n_tiers=MULTIRATE_TIERS,
        sinr_step=MULTIRATE_SINR_STEP,
        rate_step=MULTIRATE_RATE_STEP,
        hysteresis=MULTIRATE_HYSTERESIS,
    )
    obs = obs_for(
        profile,
        "multirate",
        tiers=table_mcs.n_tiers,
        sinr_step=MULTIRATE_SINR_STEP,
        rate_step=MULTIRATE_RATE_STEP,
        hysteresis=MULTIRATE_HYSTERESIS,
    )
    variants = [
        ("FDD fixed-rate", paper_fdd(profile, network), None),
        ("FDD multi-rate", paper_fdd(profile, network), table_mcs),
        (
            "GreedyRate multi-rate",
            rate_aware_scheduler(network.model, table_mcs),
            table_mcs,
        ),
    ]

    tiers_text = "/".join(
        f"{r}@{t / network.model.radio.beta:g}b"
        for t, r in zip(table_mcs.thresholds, table_mcs.rates)
    )
    out = TextTable(
        [
            "contract",
            "lambda (pkt/node/slot)",
            "throughput (pkt/slot)",
            "service rate (pkt/play)",
            "mean delay (slots)",
            "backlog growth (pkt/epoch)",
            "overhead (slots/epoch)",
            "stable",
        ],
        title="Adaptive multi-rate links — 8x8 planned grid, density "
        f"{TRAFFIC_DENSITY:g}/km^2, MCS tiers pkt@SINR {tiers_text} "
        f"(hysteresis x{MULTIRATE_HYSTERESIS:g}), "
        f"T={profile.traffic_epoch_slots} slots/epoch, borderline verdicts "
        f"majority-resolved over {CONFIRM_SEEDS} seeds",
    )
    knees = []
    for name, scheduler, rate_table in variants:
        config = epoch_config(profile, profile.multirate_epochs, rate_table=rate_table)

        def run_at(rate: float, seed_index: int, scheduler=scheduler, config=config):
            generator = poisson_arrivals(profile, network, gateways, rate, seed_index)
            return run_epochs(
                links, generator, scheduler, config, model=network.model, obs=obs
            )

        swept = sweep(profile.multirate_lambdas, run_at)
        knee = add_sweep_rows(
            out,
            (name,),
            swept,
            lambda p, t: (
                f"{p.throughput:.3f}",
                f"{p.mean_service_rate:.2f}",
                f"{p.mean_delay:.1f}",
                f"{p.backlog_slope:+.1f}",
                f"{p.overhead_slots:.1f}",
            ),
        )
        knees.append((name, knee))
    for name, knee in knees:
        add_knee_row(out, (name,), knee)
    fixed_knee = knees[0][1]
    greedy_knee = knees[-1][1]
    if fixed_knee is not None and greedy_knee is not None and fixed_knee > 0:
        shift = f"{greedy_knee / fixed_knee:.2f}x ({fixed_knee:g} -> {greedy_knee:g})"
    else:
        shift = "n/a"
    out.add_row("knee shift (greedy/fixed)", shift, "-", "-", "-", "-", "-", "-")
    finish_obs(obs)
    return out
