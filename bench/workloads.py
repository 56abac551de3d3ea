"""The four north-star workloads, driven through the public API only.

Each workload is a ``setup`` (deploy -> power model -> comm graph -> forest
-> link set, every call into a layer wrapped in a ``bench.setup.*`` span)
and a ``run`` (one closed-loop engine run of ``1 + epochs`` epochs).  The
deployment — grid, gateways, routing forest — is the operating point and is
fixed (``DEPLOYMENT_SEED``); the benchmark seed draws the traffic and the
protocols' randomness via ``repro.util.rng.spawn``.  (Drawing the forest from
the benchmark seed too doubled the seed-to-seed spread of work per
transmission — 12 % against 6 % on ``sessions_patch_8x8``, by deterministic
call counts — which the benchmark's bounds would have had to absorb.)  Two
runs of one pipeline with one seed do bit-identical work, which is what lets
the harness pool repeats.

Why these four — each stresses a different layer, so an optimisation that
helps one has a workload where the prediction is "no change":

* ``fdd_8x8``: the paper's / E7 point.  ``core`` protocol rounds are ~95 %
  of the wall; phy set-up, packing and caching do nothing here.
* ``sessions_patch_8x8``: the same mesh used the opposite way — no ``core``
  protocol at all; time splits between ``traffic.incremental`` patching,
  ``scheduling.greedy_rate`` and per-epoch loop/flows/admission/serve
  bookkeeping, and ``phy.sinr`` is hit by very many tiny dense calls, so a
  kernel change that helps big sparse gathers but taxes small calls shows.
* ``sharded_24x24``: the E9 point, the only workload where fan-out, IPC
  and ``reconcile_round`` matter.
* ``sparse_10k``: the E13 point.  ``phy`` build dominates set-up and
  ``scheduling`` packing dominates the epoch; the only workload whose
  schedules fail the exact audit today (finite cutoff + static floor).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import (
    ControlPlaneModel,
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    PoissonArrivals,
    RateTable,
    build_routing_forest,
    centralized_scheduler,
    distributed_scheduler,
    fdd_on_network,
    forest_link_set,
    grid_network,
    make_controller,
    plan_for_network,
    planned_gateways,
    rate_aware_scheduler,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
)
from repro.experiments.common import PAPER_PROTOCOL
from repro.experiments.sharded import backbone_protocol
from repro.obs.spans import Span
from repro.phy.sparse import interference_radius_m, sparse_gain_model
from repro.phy.spatial import GridIndex
from repro.routing.forest import build_routing_forest_csr
from repro.topology.commgraph import communication_csr
from repro.util.rng import spawn

DENSITY_PER_KM2 = 1000.0
DEPLOYMENT_SEED = 20080617  # repro.util.rng.DEFAULT_SEED


class Stages:
    """Wall-clock spans around the set-up calls into each layer."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.wall_s: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        with Span(f"bench.setup.{name}", recorder=self.recorder) as span:
            yield
        self.wall_s[name] = self.wall_s.get(name, 0.0) + span.wall_s


@dataclass
class Pipeline:
    """A ready-to-run deployment: what ``setup_s`` pays for."""

    network: object  # positions / powers / propagation / radio: the exact physics
    gateways: np.ndarray
    links: object
    model: object  # the oracle the schedulers pack against (may be approximate)
    counts: dict[str, float] = field(default_factory=dict)
    plan: object = None
    protocol: object = None


def _dense_pipeline(side: int, n_gateways: int, stage: Stages) -> Pipeline:
    with stage("deploy"):
        network = grid_network(side, side, density_per_km2=DENSITY_PER_KM2)
    gateways = planned_gateways(side, side, n_gateways)
    with stage("power"):
        model = network.model
    with stage("commgraph"):
        adjacency = network.comm_adj
    with stage("forest"):
        forest = build_routing_forest(
            adjacency, gateways, rng=spawn(DEPLOYMENT_SEED, "forest")
        )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return Pipeline(
        network,
        gateways,
        links,
        model,
        counts={
            "comm_edges": int(adjacency.sum()) // 2,
            "nnz": network.n_nodes**2,
            "depth_max": int(forest.depth.max()),
        },
    )


def _setup_8x8(smoke: bool, stage: Stages) -> Pipeline:
    return _dense_pipeline(8, 4, stage)


def _setup_sharded(smoke: bool, stage: Stages) -> Pipeline:
    pipeline = _dense_pipeline(12 if smoke else 24, 4, stage)
    with stage("plan"):
        pipeline.plan = plan_for_network(
            pipeline.links,
            pipeline.network,
            n_shards=4,
            interference_radius_m=80.0,
            guard_factor=1.0,
        )
    with stage("commgraph"):  # sensitivity-graph diameter sizes K and the ID width
        pipeline.protocol = backbone_protocol(pipeline.network)
    pipeline.counts["boundary_links"] = int(pipeline.plan.boundary_mask().sum())
    return pipeline


def _setup_sparse(smoke: bool, stage: Stages) -> Pipeline:
    side = 20 if smoke else 100
    with stage("deploy"):
        network = grid_network(side, side, density_per_km2=DENSITY_PER_KM2)
    gateways = planned_gateways(side, side, (side // 10) ** 2)
    radio = network.radio
    with stage("index"):
        cutoff = interference_radius_m(network.tx_power_mw, network.propagation, radio)
        index = GridIndex(network.positions, cell_size=cutoff)
    with stage("power"):
        sparse = sparse_gain_model(
            network.positions,
            network.tx_power_mw,
            network.propagation,
            radio,
            cutoff_m=cutoff,
            far_field="packing",
            index=index,
        )
        model = sparse.interference_model(radio)
    with stage("commgraph"):
        indptr, indices = communication_csr(
            sparse.power, radio.noise_mw, radio.beta, budget_mw=sparse.floor_mw
        )
    with stage("forest"):
        forest = build_routing_forest_csr(
            indptr, indices, gateways, rng=spawn(DEPLOYMENT_SEED, "forest")
        )
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return Pipeline(
        network,
        gateways,
        links,
        model,
        counts={
            "comm_edges": int(indices.size) // 2,
            "nnz": int(sparse.power.nnz),
            "depth_max": int(forest.depth.max()),
        },
    )


def _run_fdd(p: Pipeline, n_epochs: int, seed: int, probe, obs, smoke: bool):
    generator = PoissonArrivals(
        p.network.n_nodes, 0.0145, gateways=p.gateways, seed=spawn(seed, "arrivals")
    )
    scheduler = probe.scheduler(
        distributed_scheduler(
            p.network,
            probe.protocol(fdd_on_network),
            config=PAPER_PROTOCOL,
            seed=spawn(seed, "protocol"),
        )
    )
    config = EpochConfig(epoch_slots=300, n_epochs=n_epochs)
    return run_epochs(
        p.links, generator, scheduler, config, on_epoch=probe.on_epoch, obs=obs
    )


def _run_sessions(p: Pipeline, n_epochs: int, seed: int, probe, obs, smoke: bool):
    table = RateTable.geometric(p.network.radio.beta)
    workload = FlowWorkload(
        p.links,
        FlowConfig.for_offered_rate(0.0145, p.links.n_links, 300),
        controller=make_controller("knee-tracker"),
        seed=spawn(seed, "sessions"),
    )
    probe.workload = workload
    cache = probe.cache(
        probe.scheduler(rate_aware_scheduler(p.model, table), pack=True, hands=False),
        policy="patch",
        model=p.model,
        epoch_slots=300,
        rate_table=table,
    )

    def on_epoch(record, queues):
        workload.observe(record, queues)
        probe.on_epoch(record, queues)

    config = EpochConfig(
        epoch_slots=300, n_epochs=n_epochs, reschedule_policy="patch", rate_table=table
    )
    return run_epochs(
        p.links,
        workload,
        cache,
        config,
        model=p.model,
        on_epoch=on_epoch,
        control=ControlPlaneModel.default_priced(),
        obs=obs,
    )


def _run_sharded(p: Pipeline, n_epochs: int, seed: int, probe, obs, smoke: bool):
    # Stable rates for each size (E9 sweeps; the 12x12 smoke mesh is the
    # quick profile's grid).  The served round is not observable from
    # outside, so the probe sees records only.
    rate = 0.002 if smoke else 0.0012
    generator = PoissonArrivals(
        p.network.n_nodes, rate, gateways=p.gateways, seed=spawn(seed, "arrivals")
    )
    factory = sharded_distributed_factory(
        p.network, fdd_on_network, config=p.protocol, seed=spawn(seed, "protocol")
    )
    config = EpochConfig(epoch_slots=300, n_epochs=n_epochs)
    return run_epochs_sharded(
        p.plan,
        generator,
        factory,
        p.network.model,
        config,
        max_workers=2,
        on_epoch=probe.on_epoch,
        obs=obs,
        executor="thread" if smoke else "process",
    )


def _run_sparse(p: Pipeline, n_epochs: int, seed: int, probe, obs, smoke: bool):
    epoch_slots = 500
    generator = PoissonArrivals(
        p.network.n_nodes,
        1.0 / epoch_slots,
        gateways=p.gateways,
        seed=spawn(seed, "arrivals"),
    )
    scheduler = probe.scheduler(centralized_scheduler(p.model), pack=True)
    config = EpochConfig(
        epoch_slots=epoch_slots,
        n_epochs=n_epochs,
        demand_cap=1,
        retain_records="stream",
    )
    return run_epochs(
        p.links, generator, scheduler, config, on_epoch=probe.on_epoch, obs=obs
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: Measured epochs per repeat (epoch 0 is warm-up on top) — full / smoke.
    epochs: int
    smoke_epochs: int
    setup: Callable[[bool, Stages], Pipeline]
    run: Callable
    #: False when the served round is not observable from outside the engine.
    audited: bool = True
    #: Exact-physics schedules: any audit violation is a correctness failure.
    exact: bool = True
    #: Every membership carries one packet, so memberships == demand_scheduled
    #: (not under a rate table, where a membership carries its tier's packets).
    unit_rate: bool = True
    #: Schedules in pool worker processes: the host's speed is then sampled
    #: at epoch boundaries, when they are idle (see calibrate.Sampler).
    pool: bool = False


#: Epoch counts are the issue's (40 / 600 / 60 / 7) scaled by one common
#: factor of 0.15, so that two or more bit-identical repeats fit the
#: benchmark's fixed measuring window (BENCHMARK.json ``run_seconds``).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fdd_8x8", 6, 4, _setup_8x8, _run_fdd),
        Workload("sessions_patch_8x8", 90, 4, _setup_8x8, _run_sessions, unit_rate=False),
        Workload(
            "sharded_24x24", 9, 2, _setup_sharded, _run_sharded, audited=False, pool=True
        ),
        Workload("sparse_10k", 1, 1, _setup_sparse, _run_sparse, exact=False),
    )
}
