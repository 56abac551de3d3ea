"""Heavy-traffic experiments: stability regions under online rescheduling.

The evaluation axis the static figures lack (cf. arXiv:1106.1590,
arXiv:1208.0902): sustained flow arrivals, per-link queue backlogs, and a
schedule recomputed every epoch from the live backlogs.

*E7 (stability regions)* — for each arrival rate ``lambda`` (packets per
node per slot) and each scheduler — the serialized TDMA baseline, the
centralized GreedyPhysical oracle, and the FDD distributed protocol
*charged its measured air-time overhead* — the harness runs the epoch loop
on the paper's 8x8 planned grid and reports throughput, delay, and backlog
growth.  The knee rows summarize each scheduler's stability region; the
expected ordering is

    serialized  <  FDD (overhead-priced)  <=  GreedyPhysical (free oracle)

because spatial reuse raises capacity and distributed computation costs a
slice of every epoch.  Borderline operating points (utilization ~ 1, where
a single arrival sample path decides the verdict) are re-evaluated over
``CONFIRM_SEEDS`` independent seeds and majority-resolved, so the
reported knees are properties of the scheduler, not of one lucky draw.

*E8 (incremental rescheduling)* — the same FDD closed loop under the three
``reschedule_policy`` settings of :mod:`repro.traffic.incremental`:
re-run every epoch (``always``), reuse the cached schedule while backlog
drift stays under the headroom-scaled threshold (``drift-threshold``), and
additionally repair the cached schedule in place on a miss (``patch``).
The added columns price the economics: total overhead slots paid across
the run, amortized overhead per epoch, and the fraction of epochs served
from cache.  The expected headline is that caching with patching cuts
FDD's protocol overhead by an order of magnitude while leaving the
stability knee unchanged — recovering most of the free oracle's capacity
at distributed-protocol prices.
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
from repro.traffic import (
    CONFIRM_SEEDS,
    DRIFT_THRESHOLD,
    centralized_scheduler,
    run_epochs,
    serialized_scheduler,
)

#: Rescheduling policies compared on E8's incremental-rescheduling axis.
TRAFFIC_POLICIES = ("always", "drift-threshold", "patch")


def heavy_traffic_experiment(profile: ExperimentProfile) -> TextTable:
    """E7: stability-region sweep on the planned 8x8 grid (Section VI-A layout)."""
    network, gateways, links = grid_mesh(profile, 8, 8, "traffic-forest")
    obs = obs_for(profile, "heavy-traffic")
    config = epoch_config(profile, profile.traffic_epochs)
    schedulers = [
        ("Serialized", serialized_scheduler()),
        ("GreedyPhysical", centralized_scheduler(network.model)),
        ("FDD", paper_fdd(profile, network)),
    ]

    table = TextTable(
        [
            "scheduler",
            "lambda (pkt/node/slot)",
            "throughput (pkt/slot)",
            "mean delay (slots)",
            "p99 delay (slots)",
            "backlog growth (pkt/epoch)",
            "overhead (slots/epoch)",
            "stable",
        ],
        title="Heavy-traffic stability regions — 8x8 planned grid, "
        f"density {TRAFFIC_DENSITY:g}/km^2, Poisson arrivals, "
        f"T={profile.traffic_epoch_slots} slots/epoch, borderline verdicts "
        f"majority-resolved over {CONFIRM_SEEDS} seeds",
    )
    knees = []
    for name, scheduler in schedulers:

        def run_at(rate: float, seed_index: int, scheduler=scheduler):
            generator = poisson_arrivals(profile, network, gateways, rate, seed_index)
            return run_epochs(links, generator, scheduler, config, obs=obs)

        swept = sweep(profile.traffic_lambdas, run_at)
        knee = add_sweep_rows(
            table,
            (name,),
            swept,
            lambda p, t: (
                f"{p.throughput:.3f}",
                f"{p.mean_delay:.1f}",
                f"{p.p99_delay:.0f}",
                f"{p.backlog_slope:+.1f}",
                f"{p.overhead_slots:.1f}",
            ),
        )
        knees.append((name, knee))
    for name, knee in knees:
        add_knee_row(table, (name,), knee)
    finish_obs(obs)
    return table


def incremental_experiment(profile: ExperimentProfile) -> TextTable:
    """E8: rescheduling-policy axis — caching and patching vs re-run-always.

    Runs the overhead-priced FDD protocol on the planned 8x8 grid under
    each ``reschedule_policy`` in :data:`TRAFFIC_POLICIES`, sweeping
    the same arrival rates as E7, and prices the amortization: overhead
    slots actually paid, hit rate, and the per-policy stability knee.
    """
    network, gateways, links = grid_mesh(profile, 8, 8, "traffic-forest")
    obs = obs_for(profile, "incremental")

    table = TextTable(
        [
            "policy",
            "lambda (pkt/node/slot)",
            "throughput (pkt/slot)",
            "mean delay (slots)",
            "overhead (slots total)",
            "overhead (slots/epoch)",
            "cache hits (%)",
            "backlog growth (pkt/epoch)",
            "stable",
        ],
        title="Incremental epoch rescheduling — FDD on the 8x8 planned grid, "
        f"density {TRAFFIC_DENSITY:g}/km^2, Poisson arrivals, "
        f"T={profile.traffic_epoch_slots} slots/epoch, base drift threshold "
        f"{DRIFT_THRESHOLD:g} (headroom-scaled)",
    )
    knees = []
    for policy in TRAFFIC_POLICIES:
        config = epoch_config(profile, profile.traffic_epochs, reschedule_policy=policy)

        def run_at(rate: float, seed_index: int, config=config):
            # A fresh scheduler (and, inside run_epochs, a fresh cache) per
            # operating point: cache state must never leak across runs.
            generator = poisson_arrivals(profile, network, gateways, rate, seed_index)
            return run_epochs(
                links,
                generator,
                paper_fdd(profile, network),
                config,
                model=network.model,
                obs=obs,
            )

        swept = sweep(profile.traffic_lambdas, run_at)
        knee = add_sweep_rows(
            table,
            (policy,),
            swept,
            lambda p, t: (
                f"{p.throughput:.3f}",
                f"{p.mean_delay:.1f}",
                f"{t.overhead_slots_total:d}",
                f"{p.overhead_slots:.1f}",
                f"{p.cache_hit_rate:.0%}",
                f"{p.backlog_slope:+.1f}",
            ),
        )
        knees.append((policy, knee))
    for policy, knee in knees:
        add_knee_row(table, (policy,), knee)
    finish_obs(obs)
    return table
