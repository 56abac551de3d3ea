"""Shared experiment machinery: the paper's scenarios, the sweep profiles,
and the closed-loop harness E7-E12 build, sweep and tabulate through.

Section VI-A setup: 64 nodes, 4 gateways, per-node demand ~ U[1, 10],
demand aggregated along nearest-gateway routes, density varied by scaling
the area with the node count fixed, SCREAM size 15 bytes, interference
diameter (K) 5, results with 95% confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.fdd import fdd_on_network
from repro.routing import (
    aggregate_demand,
    build_routing_forest,
    planned_gateways,
    random_gateways,
    uniform_node_demand,
)
from repro.scheduling.links import LinkSet, forest_link_set
from repro.topology.network import Network, grid_network, uniform_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    StabilityMetrics,
    TrafficTrace,
    distributed_scheduler,
    stability_knee,
    stability_sweep,
)
from repro.util.rng import DEFAULT_SEED, spawn


@dataclass(frozen=True)
class Scenario:
    """One concrete instance: a deployed network plus the links to schedule."""

    network: Network
    links: LinkSet
    gateways: np.ndarray
    label: str

    @property
    def total_demand(self) -> int:
        return self.links.total_demand


@dataclass(frozen=True)
class ExperimentProfile:
    """Sweep sizes for an experiment run (full fidelity vs quick smoke)."""

    name: str
    densities: tuple[float, ...] = (1000, 2500, 5000, 10000, 15000, 20000, 25000)
    repetitions: int = 5
    pdd_probabilities: tuple[float, ...] = (0.2, 0.6, 0.8)
    mote_screams: int = 2000
    mote_smbytes: tuple[int, ...] = (5, 6, 8, 10, 12, 15, 20, 24, 30)
    exec_time_sweep: tuple[int, ...] = (5, 10, 15, 20, 30, 40, 50, 60)
    skew_sweep_s: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    id_scaling_sizes: tuple[int, ...] = (16, 36, 64, 100, 144, 196)
    traffic_lambdas: tuple[float, ...] = (0.006, 0.0145, 0.019)
    traffic_epochs: int = 10
    traffic_epoch_slots: int = 300
    #: Multi-region grids swept by the sharded-engine experiment (E9), with
    #: one arrival-rate sweep per grid (knees sit lower on deeper trees).
    sharded_grids: tuple[tuple[int, int], ...] = ((16, 16), (24, 24))
    sharded_lambdas: tuple[tuple[float, ...], ...] = (
        (0.0015, 0.002, 0.0025, 0.003),
        (0.0008, 0.0012, 0.0016),
    )
    sharded_epochs: int = 8
    #: E10 admission-control axis: offered load as multiples of the
    #: uncontrolled FDD knee measured by E7 (:data:`ADMISSION_KNEE_RATE`)
    #: and the controllers compared.
    admission_controllers: tuple[str, ...] = (
        "none",
        "static-cap",
        "knee-tracker",
        "backpressure",
    )
    admission_load_factors: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    admission_epochs: int = 12
    #: E11 in-band control-plane pricing: the E8-revisit arrival rate.  See
    #: repro.core.controlplane and DESIGN.md §10.
    controlplane_lambda: float = 0.0145
    #: E12 adaptive multi-rate links: the lambda sweep brackets E7's
    #: fixed-rate FDD knee (0.019) from below and above so the knee *shift*
    #: is visible.  The MCS ladder is repro.experiments.multirate's.
    multirate_lambdas: tuple[float, ...] = (0.0145, 0.019, 0.0265, 0.034)
    multirate_epochs: int = 10
    #: E11 sensitivity satellite: factors applied via ControlPlaneModel.scaled
    #: to the E8-revisit pricing, looking for where patching's amortized
    #: overhead win flips sign.  Honest prices are milliseconds of air per
    #: epoch against 40 ms slots, so the flip only appears around three
    #: orders of magnitude above them (~2-8192x the 8-byte patch payload,
    #: i.e. ~16-64 kB per delta) — the sweep brackets it.
    controlplane_scale_factors: tuple[float, ...] = (1.0, 256.0, 2048.0, 8192.0)
    #: E13 scale sweep (repro.experiments.scale): square grid side lengths
    #: (node count = side^2; 316^2 ~ 10^5 nodes), the node-count ceiling for
    #: the dense O(n^2) baseline (beyond it only the sparse backend runs —
    #: the dense gain matrix alone is 8 GB at 10^5 nodes), and slots per
    #: epoch of the served workload.
    scale_grid_sides: tuple[int, ...] = (50, 100, 224, 316)
    scale_dense_max_nodes: int = 10_000
    scale_epoch_slots: int = 500
    #: Observability (repro.obs): instrumentation level for the engine runs
    #: an experiment performs ("off" | "metrics" | "spans") and, when set,
    #: the directory its JSONL run file (``<experiment>.jsonl``) is written
    #: to.  See :func:`obs_for` and DESIGN.md §11.
    obs_level: str = "off"
    obs_jsonl: str | None = None
    seed: int = DEFAULT_SEED


FULL = ExperimentProfile(name="full")

QUICK = ExperimentProfile(
    name="quick",
    densities=(1000, 5000, 25000),
    repetitions=2,
    pdd_probabilities=(0.2, 0.8),
    mote_screams=200,
    mote_smbytes=(5, 8, 10, 15, 24),
    exec_time_sweep=(5, 15, 30, 60),
    skew_sweep_s=(1e-6, 1e-4, 1e-2, 1.0),
    id_scaling_sizes=(16, 36, 64),
    traffic_lambdas=(0.006, 0.019),
    traffic_epochs=5,
    traffic_epoch_slots=200,
    sharded_grids=((12, 12),),
    sharded_lambdas=((0.002, 0.004),),
    sharded_epochs=5,
    admission_controllers=("none", "knee-tracker"),
    admission_load_factors=(1.0, 2.0),
    admission_epochs=8,
    controlplane_lambda=0.006,
    multirate_lambdas=(0.006, 0.019, 0.0265),
    multirate_epochs=5,
    controlplane_scale_factors=(1.0, 1024.0, 4096.0),
    scale_grid_sides=(20, 32),
    scale_dense_max_nodes=1100,
    scale_epoch_slots=200,
)

#: The paper's protocol constants (Section VI-A).
PAPER_PROTOCOL = ProtocolConfig(k=5, smbytes=15, id_bits=8)

#: Deployment density of the closed-loop traffic experiments' planned
#: grids (E7-E12), nodes/km^2.
TRAFFIC_DENSITY = 1000.0

#: Spatial shards (grid tiles) of the sharded engine runs (E9, E11's E9
#: revisit), with their boundary-link detection radius (m) and guard
#: margin (x noise).
SHARDED_SHARDS = 4
SHARDED_RADIUS_M = 80.0
SHARDED_GUARD_FACTOR = 1.0

#: E7's FDD knee on the 8x8 grid (pkt/node/slot): the unit of E10's
#: offered loads and of E11's E10-revisit overload.
ADMISSION_KNEE_RATE = 0.019


def obs_for(profile: ExperimentProfile, experiment: str, **extra):
    """Build the Obs handle an experiment threads through its engine runs.

    Returns ``None`` when the profile's ``obs_level`` is ``off`` (engines
    take ``obs=None``), otherwise an :class:`repro.obs.Obs` at the
    profile's level.  With ``obs_jsonl`` set, the run streams to
    ``<obs_jsonl>/<experiment>.jsonl``; the experiment must call
    ``finish_obs(obs)`` after its last engine run to flush the metrics
    snapshot and summary line.  ``extra`` lands in the run file's config
    fingerprint alongside the profile name and seed.
    """
    from pathlib import Path

    from repro.obs import Obs, ObsConfig

    if profile.obs_level == "off":
        return None
    path = None
    if profile.obs_jsonl is not None:
        directory = Path(profile.obs_jsonl)
        directory.mkdir(parents=True, exist_ok=True)
        path = str(directory / f"{experiment}.jsonl")
    return Obs.create(
        ObsConfig(
            level=profile.obs_level,
            jsonl_path=path,
            run_name=experiment,
            config={
                "experiment": experiment,
                "profile": profile.name,
                "seed": profile.seed,
                **extra,
            },
        )
    )


def finish_obs(obs) -> None:
    """Flush an experiment's Obs (no-op for ``None`` / non-JSONL handles)."""
    if obs is not None:
        obs.export()


def grid_scenario(
    density_per_km2: float,
    rep: int,
    seed: int = DEFAULT_SEED,
    rows: int = 8,
    cols: int = 8,
    n_gateways: int = 4,
    demand_range: tuple[int, int] = (1, 10),
) -> Scenario:
    """The planned scenario: grid placement, planned gateways.

    The topology is deterministic given the density; routing tie-breaks and
    demands vary with the repetition index.
    """
    network = grid_network(rows, cols, density_per_km2=density_per_km2)
    gws = planned_gateways(rows, cols, n_gateways)
    forest = build_routing_forest(
        network.comm_adj, gws, rng=spawn(seed, "grid-forest", int(density_per_km2), rep)
    )
    demand = uniform_node_demand(
        network.n_nodes,
        spawn(seed, "grid-demand", int(density_per_km2), rep),
        low=demand_range[0],
        high=demand_range[1],
        gateways=gws,
    )
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return Scenario(
        network=network,
        links=links,
        gateways=gws,
        label=f"grid d={density_per_km2:g} rep={rep}",
    )


def uniform_scenario(
    density_per_km2: float, rep: int, seed: int = DEFAULT_SEED
) -> Scenario:
    """The unplanned scenario: 64 nodes, uniform placement, heterogeneous
    power, 4 random gateways, per-node demand ~ U[1, 10]."""
    n_nodes = 64
    network = uniform_network(
        n_nodes,
        density_per_km2=density_per_km2,
        rng=spawn(seed, "uniform-net", int(density_per_km2), rep),
    )
    gws = random_gateways(
        n_nodes, 4, spawn(seed, "uniform-gw", int(density_per_km2), rep)
    )
    forest = build_routing_forest(
        network.comm_adj,
        gws,
        rng=spawn(seed, "uniform-forest", int(density_per_km2), rep),
    )
    demand = uniform_node_demand(
        n_nodes,
        spawn(seed, "uniform-demand", int(density_per_km2), rep),
        low=1,
        high=10,
        gateways=gws,
    )
    links = forest_link_set(forest, aggregate_demand(forest, demand))
    return Scenario(
        network=network,
        links=links,
        gateways=gws,
        label=f"uniform d={density_per_km2:g} rep={rep}",
    )


# --------------------------------------------------------------------------
# The closed-loop harness of E7-E12: build, run, sweep, tabulate
# --------------------------------------------------------------------------


def grid_mesh(profile: ExperimentProfile, rows: int, cols: int, *key):
    """A planned ``rows x cols`` grid at :data:`TRAFFIC_DENSITY`, its four
    planned gateways, and the forest link set, the forest drawn from
    ``spawn(profile.seed, *key)``.  The link set only defines the directed
    links and queues; the epoch loop replaces its demand with the live
    backlog snapshot."""
    network = grid_network(rows, cols, density_per_km2=TRAFFIC_DENSITY)
    gateways = planned_gateways(rows, cols, 4)
    forest = build_routing_forest(
        network.comm_adj, gateways, rng=spawn(profile.seed, *key)
    )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


def poisson_arrivals(
    profile: ExperimentProfile,
    network: Network,
    gateways: np.ndarray,
    rate: float,
    seed_index: int = 0,
    key: tuple = ("traffic-gen",),
) -> PoissonArrivals:
    """Poisson arrivals for one (rate, seed) operating point.

    Seed index 0 draws from ``spawn(profile.seed, *key)`` for every
    scheduler (common random numbers: knee differences are scheduler
    capacity, not workload luck); index ``k > 0`` appends ``k``, the
    independent sample paths that majority-resolve borderline verdicts.
    """
    if seed_index:
        key = (*key, seed_index)
    return PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(profile.seed, *key)
    )


def paper_fdd(profile: ExperimentProfile, network: Network):
    """FDD with the paper's protocol constants, re-run every epoch and
    charged its measured air time: the overhead-priced scheduler of E7, E8
    and E10-E12, all on one seed stream."""
    return distributed_scheduler(
        network,
        fdd_on_network,
        config=PAPER_PROTOCOL,
        seed=spawn(profile.seed, "traffic-fdd"),
    )


def epoch_config(profile: ExperimentProfile, n_epochs: int, **fields) -> EpochConfig:
    """``n_epochs`` epochs of ``profile.traffic_epoch_slots`` slots, stopped
    early once the backlog passes 4x the mean epoch arrivals; ``fields``
    override or add :class:`~repro.traffic.EpochConfig` fields."""
    fields = {"divergence_factor": 4.0, **fields}
    return EpochConfig(
        epoch_slots=profile.traffic_epoch_slots, n_epochs=n_epochs, **fields
    )


def sweep(rates, run_at) -> list[tuple[StabilityMetrics, TrafficTrace]]:
    """:func:`~repro.traffic.stability_sweep` over ``run_at(rate,
    seed_index)``, each point paired with its seed-0 run's trace (the one
    the per-run columns describe)."""
    traces: dict[float, TrafficTrace] = {}

    def run_and_keep(rate: float, seed_index: int) -> TrafficTrace:
        trace = run_at(rate, seed_index)
        if seed_index == 0:
            traces[rate] = trace
        return trace

    points = stability_sweep(rates, run_and_keep)
    return [(point, traces[point.offered_rate]) for point in points]


def add_sweep_rows(table, lead: tuple, swept, cells) -> float | None:
    """One row per swept point — ``lead``, the rate, ``cells(point, trace)``
    and the verdict, ``yes`` / ``NO`` with ``(k-seed)`` when a majority of
    ``k`` seeds decided it — and return the sweep's stability knee."""
    for point, trace in swept:
        stable = "yes" if point.stable else "NO"
        if point.confirm_seeds > 1:
            stable += f" ({point.confirm_seeds}-seed)"
        table.add_row(*lead, f"{point.offered_rate:g}", *cells(point, trace), stable)
    return stability_knee([point for point, _ in swept])


def add_knee_row(table, lead: tuple, knee: float | None, cells=None) -> None:
    """The knee summary row: ``lead``, ``knee``, ``cells`` (``-`` in every
    column by default) and the knee rate (``-`` when even the lowest rate
    was unstable)."""
    if cells is None:
        cells = ["-"] * (len(table.columns) - len(lead) - 2)
    table.add_row(*lead, "knee", *cells, "-" if knee is None else f"{knee:g}")


def seconds_cell(value: float | None) -> str:
    """A thread-CPU timing cell; ``~`` when the clock was unavailable."""
    return "~" if value is None else f"{value:.2f}"
