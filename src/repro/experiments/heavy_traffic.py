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
``TRAFFIC_CONFIRM_SEEDS`` independent seeds and majority-resolved, so the
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

from dataclasses import replace

import numpy as np

from repro.analysis.tables import TextTable
from repro.core.fdd import fdd_on_network
from repro.experiments.common import (
    PAPER_PROTOCOL,
    TRAFFIC_CONFIRM_SEEDS,
    TRAFFIC_DENSITY,
    TRAFFIC_SLOT_SECONDS,
    ExperimentProfile,
    finish_obs,
    obs_for,
)
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    TrafficTrace,
    centralized_scheduler,
    distributed_scheduler,
    run_epochs,
    serialized_scheduler,
    stability_knee,
    stability_sweep,
)
from repro.util.rng import spawn

#: Rescheduling policies compared on E8's incremental-rescheduling axis.
TRAFFIC_POLICIES = ("always", "drift-threshold", "patch")


def _grid_mesh(profile: ExperimentProfile):
    """The planned 8x8 grid, its gateways, and the forest link set."""
    network = grid_network(8, 8, density_per_km2=TRAFFIC_DENSITY)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(
        network.comm_adj, gateways, rng=spawn(profile.seed, "traffic-forest")
    )
    # The forest link set only defines the directed links and queues; the
    # epoch loop replaces its demand with the live backlog snapshot.
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


def _generator(profile: ExperimentProfile, network, gateways, rate: float, seed_index: int):
    """Poisson arrivals for one (rate, seed) operating point.

    Seed index 0 keeps the PR-1 derivation path (common random numbers:
    every scheduler faces the identical arrival sample path, so knee
    differences are scheduler capacity, not workload luck); higher indices
    are the independent sample paths used to majority-resolve borderline
    verdicts.
    """
    key = ("traffic-gen",) if seed_index == 0 else ("traffic-gen", seed_index)
    return PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(profile.seed, *key)
    )


def heavy_traffic_experiment(profile: ExperimentProfile) -> TextTable:
    """E7: stability-region sweep on the planned 8x8 grid (Section VI-A layout)."""
    network, gateways, links = _grid_mesh(profile)
    obs = obs_for(profile, "heavy-traffic")
    config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.traffic_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=4.0,
    )
    schedulers = [
        ("Serialized", serialized_scheduler()),
        ("GreedyPhysical", centralized_scheduler(network.model)),
        (
            "FDD",
            distributed_scheduler(
                network,
                fdd_on_network,
                config=PAPER_PROTOCOL,
                seed=spawn(profile.seed, "traffic-fdd"),
            ),
        ),
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
        f"majority-resolved over {TRAFFIC_CONFIRM_SEEDS} seeds",
    )
    knees: list[tuple[str, float | None]] = []
    for name, scheduler in schedulers:

        def run_at(rate: float, seed_index: int = 0, scheduler=scheduler) -> TrafficTrace:
            generator = _generator(profile, network, gateways, rate, seed_index)
            return run_epochs(links, generator, scheduler, config, obs=obs)

        points = stability_sweep(
            profile.traffic_lambdas,
            run_at,
            confirm_seeds=TRAFFIC_CONFIRM_SEEDS,
        )
        knees.append((name, stability_knee(points)))
        for point in points:
            stable = "yes" if point.stable else "NO"
            if point.confirm_seeds > 1:
                stable += f" ({point.confirm_seeds}-seed)"
            table.add_row(
                name,
                f"{point.offered_rate:g}",
                f"{point.throughput:.3f}",
                f"{point.mean_delay:.1f}",
                f"{point.p99_delay:.0f}",
                f"{point.backlog_slope:+.1f}",
                f"{point.overhead_slots:.1f}",
                stable,
            )
    for name, knee in knees:
        table.add_row(
            name, "knee", "-", "-", "-", "-", "-", "-" if knee is None else f"{knee:g}"
        )
    finish_obs(obs)
    return table


def incremental_experiment(profile: ExperimentProfile) -> TextTable:
    """E8: rescheduling-policy axis — caching and patching vs re-run-always.

    Runs the overhead-priced FDD protocol on the planned 8x8 grid under
    each ``reschedule_policy`` in :data:`TRAFFIC_POLICIES`, sweeping
    the same arrival rates as E7, and prices the amortization: overhead
    slots actually paid, hit rate, and the per-policy stability knee.
    """
    network, gateways, links = _grid_mesh(profile)
    obs = obs_for(profile, "incremental")
    base_config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.traffic_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=4.0,
    )

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
        f"{base_config.drift_threshold:g} (headroom-scaled)",
    )
    knees: list[tuple[str, float | None]] = []
    base_traces: dict[tuple[str, float], TrafficTrace] = {}
    for policy in TRAFFIC_POLICIES:
        config = replace(base_config, reschedule_policy=policy)

        def run_at(rate: float, seed_index: int = 0, config=config) -> TrafficTrace:
            # A fresh scheduler (and, inside run_epochs, a fresh cache) per
            # operating point: cache state must never leak across runs.
            scheduler = distributed_scheduler(
                network,
                fdd_on_network,
                config=PAPER_PROTOCOL,
                seed=spawn(profile.seed, "traffic-fdd"),
            )
            generator = _generator(profile, network, gateways, rate, seed_index)
            trace = run_epochs(
                links, generator, scheduler, config, model=network.model, obs=obs
            )
            if seed_index == 0:
                base_traces[(config.reschedule_policy, rate)] = trace
            return trace

        points = stability_sweep(
            profile.traffic_lambdas,
            run_at,
            confirm_seeds=TRAFFIC_CONFIRM_SEEDS,
        )
        knees.append((policy, stability_knee(points)))
        for point in points:
            stable = "yes" if point.stable else "NO"
            if point.confirm_seeds > 1:
                stable += f" ({point.confirm_seeds}-seed)"
            trace = base_traces[(policy, point.offered_rate)]
            table.add_row(
                policy,
                f"{point.offered_rate:g}",
                f"{point.throughput:.3f}",
                f"{point.mean_delay:.1f}",
                f"{trace.overhead_slots_total:d}",
                f"{point.overhead_slots:.1f}",
                f"{point.cache_hit_rate:.0%}",
                f"{point.backlog_slope:+.1f}",
                stable,
            )
    for policy, knee in knees:
        table.add_row(
            policy,
            "knee",
            "-",
            "-",
            "-",
            "-",
            "-",
            "-",
            "-" if knee is None else f"{knee:g}",
        )
    finish_obs(obs)
    return table
