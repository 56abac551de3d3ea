"""Zero-price equivalence: the control-plane refactor must be invisible
until a message class is actually priced.

The load-bearing guarantee of the DESIGN.md §10 refactor is differential:
with every :class:`~repro.core.controlplane.ControlPlaneModel` price at
zero, each engine — ``run_epochs`` under every reschedule policy,
``run_epochs_sharded`` on a real multi-shard plan, and the admission
engine with an actively controlling workload — reproduces its unpriced
(``control=None``) trace epoch-for-epoch: records, per-packet delays,
backlogs, cache decisions.  The ledger still *counts* the messages the
idealization was not paying for, which is the second thing locked down
here: identical behaviour, honest message census.
"""

import numpy as np
import pytest

from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    ControlPlaneModel,
    DEFAULT_GUARD_FACTOR,
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    KneeTracker,
    PoissonArrivals,
    ScheduleCache,
    centralized_scheduler,
    distributed_scheduler,
    forest_depths,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
)
from repro.util.rng import spawn
from tests.conftest import ledger_counts

#: Every behavioural field of an EpochRecord, the new control fields
#: included — zero-priced runs must report 0 control slots everywhere.
ALL_FIELDS = (
    "epoch",
    "arrivals",
    "served",
    "delivered",
    "backlog_end",
    "demand_scheduled",
    "schedule_length",
    "overhead_slots",
    "cache_hit",
    "patched",
    "drift",
    "control_slots",
    "n_shards",
    "reconciled",
)


def _functional(record):
    return tuple(getattr(record, f) for f in ALL_FIELDS)


def assert_traces_identical(priced, bare):
    assert [_functional(r) for r in priced.records] == [
        _functional(r) for r in bare.records
    ]
    assert priced.diverged == bare.diverged
    assert np.array_equal(priced.queues.delay_array(), bare.queues.delay_array())
    assert np.array_equal(priced.queues.backlog, bare.queues.backlog)
    assert all(r.control_slots == 0 for r in priced.records)
    assert priced.ledger is not None and priced.ledger.seconds() == 0.0
    assert bare.ledger is None
    priced.queues.check_conservation()


@pytest.fixture(scope="module")
def mesh():
    network = grid_network(8, 8, density_per_km2=1000.0)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(23, "f"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


def _poisson(network, gateways, rate=0.012):
    return PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(23, "g")
    )


@pytest.mark.parametrize("policy", ["always", "drift-threshold", "patch"])
def test_zero_priced_run_epochs_is_bit_identical(mesh, policy):
    """run_epochs x every reschedule policy, live FDD (stochastic,
    overhead-priced): control=zero-priced-model ≡ control=None."""
    network, gateways, links = mesh
    config = EpochConfig(
        epoch_slots=200, n_epochs=5, divergence_factor=4.0, reschedule_policy=policy
    )

    def scheduler():
        return distributed_scheduler(
            network, fdd_on_network, config=PAPER_PROTOCOL, seed=23
        )

    bare = run_epochs(
        links, _poisson(network, gateways), scheduler(), config, model=network.model
    )
    priced = run_epochs(
        links,
        _poisson(network, gateways),
        scheduler(),
        config,
        model=network.model,
        control=ControlPlaneModel(),
    )
    assert_traces_identical(priced, bare)
    if policy == "patch" and priced.patched_epochs:
        # The census: free patches still announce their deltas in the ledger.
        assert priced.ledger.messages(layer="incremental", message_class="patch") > 0


@pytest.mark.parametrize("guard", [DEFAULT_GUARD_FACTOR, 0.0],
                         ids=["guarded", "unguarded"])
def test_zero_priced_sharded_engine_is_bit_identical(mesh, guard):
    """run_epochs_sharded on a genuine 4-shard plan (boundary links,
    reconciliation): the priced-at-zero run reproduces the bare engine,
    also without a guard margin, where the repair pass serializes
    memberships and the ledger counts them as ``reconcile``."""
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=200, n_epochs=5, divergence_factor=4.0)
    plan = plan_for_network(links, network, n_shards=4, interference_radius_m=80.0,
                            guard_factor=guard)
    assert plan.n_shards > 1

    bare = run_epochs_sharded(
        plan,
        _poisson(network, gateways),
        sharded_centralized_factory(),
        network.model,
        config,
    )
    priced = run_epochs_sharded(
        plan,
        _poisson(network, gateways),
        sharded_centralized_factory(),
        network.model,
        config,
        control=ControlPlaneModel(),
    )
    assert_traces_identical(priced, bare)
    # Boundary links existed and demanded: the free post-pass was reading
    # reports it never paid for.
    assert priced.ledger.messages(layer="sharded", message_class="report") > 0
    reconciled = sum(r.reconciled for r in priced.records)
    assert priced.ledger.messages(layer="sharded", message_class="reconcile") == reconciled
    if guard == 0.0:
        assert reconciled > 0


def test_priced_sharded_run_is_worker_count_invariant(mesh):
    """``max_workers`` changes nothing, so the trace and every ledger
    reading are identical at any worker count, and every demanded
    multi-shard epoch books its boundary reports and the memberships its
    reconciliation serialized."""
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=200, n_epochs=5, divergence_factor=4.0)
    plan = plan_for_network(links, network, n_shards=4, interference_radius_m=80.0)

    def run(workers):
        return run_epochs_sharded(
            plan,
            _poisson(network, gateways),
            sharded_centralized_factory(),
            network.model,
            config,
            max_workers=workers,
            control=ControlPlaneModel.default_priced(),
        )

    serial, threaded = run(1), run(4)
    assert [_functional(r) for r in serial.records] == [
        _functional(r) for r in threaded.records
    ]
    assert serial.ledger.messages() == threaded.ledger.messages() > 0
    assert serial.ledger.seconds() == threaded.ledger.seconds()
    for layer in ("incremental", "admission", "sharded"):
        assert serial.ledger.messages(layer) == threaded.ledger.messages(layer)
        assert serial.ledger.seconds(layer) == threaded.ledger.seconds(layer)

    booked = ledger_counts(serial.ledger, "sharded")
    demanded = [r for r in serial.records if r.demand_scheduled > 0]
    assert len(demanded) == len(serial.records)
    for record in demanded:
        assert booked[record.epoch, "report"] > 0
        assert booked.get((record.epoch, "reconcile"), 0) == record.reconciled
    assert sum(r.reconciled for r in demanded) > 0


class _RecordingCache(ScheduleCache):
    """A schedule cache that keeps every demand snapshot it was asked for
    and the decision it took on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def __call__(self, links, epoch):
        planned = super().__call__(links, epoch)
        self.asked.append((np.array(links.demand, copy=True), self.last_decision))
        return planned


@pytest.mark.parametrize("policy", ["drift-threshold", "patch"])
def test_priced_cache_books_each_patch_edit_times_its_depth(mesh, policy):
    """``run_epochs`` binds a priced ledger and the forest depths to the
    cache: a patch books, per link, the change in its demand since the
    cached baseline times its hop depth from the gateway; hits and
    recomputes book no ``patch`` message."""
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=200, n_epochs=6, divergence_factor=4.0)
    cache = _RecordingCache(
        centralized_scheduler(network.model, overhead_seconds=0.3),
        policy=policy,
        drift_threshold=0.5,
        model=network.model,
        epoch_slots=config.epoch_slots,
    )
    trace = run_epochs(
        links, _poisson(network, gateways), cache, config, model=network.model,
        control=ControlPlaneModel.default_priced(),
    )
    depths = forest_depths(links)
    assert depths.min() >= 1

    expected = {}
    baseline = None
    for demand, decision in cache.asked:
        if decision.patched:
            expected[decision.epoch] = int((np.abs(demand - baseline) * depths).sum())
        if not decision.hit:
            baseline = demand
    booked = {
        epoch: count
        for (epoch, cls), count in ledger_counts(trace.ledger, "incremental").items()
        if cls == "patch"
    }
    assert booked == expected
    assert cache.stats.hits > 0
    if policy == "patch":
        assert cache.stats.patches > 0 and sum(booked.values()) > 0


def test_zero_priced_admission_engine_is_bit_identical(mesh):
    """An actively controlling knee tracker (blocking sessions, throttling
    flows) under zero prices: identical trace, nonzero signaling census."""
    network, gateways, links = mesh

    def workload():
        cfg = FlowConfig.for_offered_rate(3.0 * 0.019, links.n_links, 200)
        return FlowWorkload(
            links, cfg, controller=KneeTracker(window=3), seed=spawn(23, "wl")
        )

    config = EpochConfig(epoch_slots=200, n_epochs=10, divergence_factor=8.0)
    bare_wl = workload()
    bare = run_epochs(
        links,
        bare_wl,
        centralized_scheduler(network.model),
        config,
        on_epoch=bare_wl.observe,
    )
    priced_wl = workload()
    priced = run_epochs(
        links,
        priced_wl,
        centralized_scheduler(network.model),
        config,
        on_epoch=priced_wl.observe,
        control=ControlPlaneModel(),
    )
    assert_traces_identical(priced, bare)
    assert priced_wl.sessions_blocked == bare_wl.sessions_blocked > 0
    assert priced_wl.packets_throttled == bare_wl.packets_throttled
    assert priced.ledger.messages(layer="admission", message_class="signal") > 0
    assert priced.ledger.messages(layer="admission", message_class="report") > 0


def test_priced_control_only_ever_adds_overhead(mesh):
    """The honest-price run at the same operating point: overhead per epoch
    is pointwise >= the free run's wherever the demand path is identical,
    and the ledger attributes the increment."""
    network, gateways, links = mesh
    config = EpochConfig(
        epoch_slots=200, n_epochs=5, divergence_factor=4.0, reschedule_policy="patch"
    )
    free = run_epochs(
        links,
        _poisson(network, gateways),
        centralized_scheduler(network.model),
        config,
        model=network.model,
        control=ControlPlaneModel(),
    )
    priced = run_epochs(
        links,
        _poisson(network, gateways),
        centralized_scheduler(network.model),
        config,
        model=network.model,
        control=ControlPlaneModel.default_priced(),
    )
    assert priced.ledger.seconds() > 0.0
    assert priced.control_slots_total > 0
    for priced_rec, free_rec in zip(priced.records, free.records):
        assert priced_rec.overhead_slots >= free_rec.overhead_slots
        assert priced_rec.control_slots >= 0
