"""Integration tests for the sharded multi-region epoch engine.

* Contract: the engine re-runs every shard each epoch at fixed rate, and
  rejects a caching policy or a rate table before any arrival is booked.
* Differential equivalence: the sharded engine with ``n_shards=1`` must
  reproduce the monolithic ``run_epochs`` epoch-for-epoch (backlogs,
  delivered, overhead, per-packet delays) — the harness that keeps the
  refactor honest.  The
  FDD variant of the same harness lives in
  ``benchmarks/test_bench_sharded.py``.  The same runs, observed at spans
  level, pin that the two entry points really share one loop: identical
  shared-stage spans and ``traffic.*`` metrics up to the ``engine`` label.
* Serial fan-out: shards run in the caller's thread, so the perf ledger's
  ``executor="process", max_workers=2`` call opens no pool and returns the
  keyword-free call's trace — with FDD and centralized shards, on one
  shard and on four, at any worker count; both keywords are still
  validated.
* Multi-shard sanity: conservation, feasible reconciled rounds, and
  shard-aware accounting on a real 4-shard run.
* Lockstep lanes: the shards whose library schedulers pack in closed form
  are packed as lanes of one lockstep pack.  On E9's 16x16 and 24x24 plans
  every region's FDD books the tally and schedule it books alone on its
  sub-network, and plans that mix laned shards with shards called alone
  (PDD, a custom factory, lanes past ``max_rounds``) serve exactly what
  calling every shard alone serves.
* Failure: a raising shard scheduler — or shard lane — surfaces as
  :class:`ShardScheduleError` naming the shard and epoch and poisons the
  queues (the monolithic engine fails through the same loop, re-raising the
  scheduler's own exception).
"""

import concurrent.futures.process
import concurrent.futures.thread
import multiprocessing
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import protocol as protocol_module
from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.experiments.common import FULL, PAPER_PROTOCOL, grid_mesh, grid_scenario
from repro.experiments.sharded import backbone_protocol, sharded_plan
from repro.obs import Obs, ObsConfig
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig, RateTable, uniform_tx_power
from repro.routing.forest import build_routing_forest
from repro.scheduling.links import forest_link_set
from repro.topology.network import Network
from repro.topology.regions import SquareRegion
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    ScheduleCache,
    ShardScheduleError,
    centralized_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
)
from tests.conftest import (
    BufferRecorder,
    counter_value,
    drift_threshold,
    ledger_counts,
    metric,
    serve_slot,
)

FUNCTIONAL_FIELDS = (
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
)


def _functional(trace):
    return [tuple(getattr(r, f) for f in FUNCTIONAL_FIELDS) for r in trace.records]


@pytest.fixture(scope="module")
def mesh():
    return grid_scenario(1000.0, rep=0, rows=8, cols=8, n_gateways=4)


def _generator(mesh, rate=0.012, seed=11):
    return PoissonArrivals(
        mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=seed
    )


#: The stages the epoch loop itself runs, whichever engine calls it.
SHARED_STAGE_SPANS = ("epoch.arrivals", "epoch.control", "epoch.annotate", "epoch.serve")


def _spans_obs():
    obs = Obs.create(ObsConfig(level="spans"))
    obs.recorder = BufferRecorder()
    return obs


def _loop_observables(obs):
    """What the shared loop emitted, with the ``engine`` label dropped: the
    multiset of its stage spans and every ``traffic.*`` counter / gauge."""

    def sans_engine(labels):
        return tuple(sorted((k, str(v)) for k, v in labels.items() if k != "engine"))

    spans = Counter(
        (span.name, sans_engine(span.labels))
        for span in obs.recorder.spans
        if span.name in SHARED_STAGE_SPANS
    )
    metrics = sorted(
        (row["kind"], row["name"], sans_engine(row["labels"]), row["value"])
        for row in obs.registry.rows()
        if row["name"].startswith("traffic.") and row["kind"] in ("counter", "gauge")
    )
    return spans, metrics


def _mono_and_single_shard(mesh, config, rate=0.012):
    """The same run through both entry points, each under a spans-level Obs."""
    model = mesh.network.model
    mono_obs, shard_obs = _spans_obs(), _spans_obs()
    mono = run_epochs(
        mesh.links,
        _generator(mesh, rate),
        centralized_scheduler(model, overhead_seconds=0.3),
        config,
        model=model,
        obs=mono_obs,
    )
    plan = plan_for_network(mesh.links, mesh.network, n_shards=1,
                            interference_radius_m=80.0)

    def factory(shard, shard_model):
        return centralized_scheduler(shard_model, overhead_seconds=0.3)

    shard = run_epochs_sharded(
        plan, _generator(mesh, rate), factory, model, config, obs=shard_obs
    )
    return mono, shard, _loop_observables(mono_obs), _loop_observables(shard_obs)


@pytest.mark.parametrize(
    "change",
    [
        {"reschedule_policy": "drift-threshold"},
        {"reschedule_policy": "patch"},
        {"rate_table": RateTable.degenerate(10.0)},
        {"rate_table": RateTable.geometric(10.0)},
    ],
    ids=["drift-threshold", "patch", "degenerate-table", "geometric-table"],
)
def test_caching_and_rate_tables_are_rejected_before_any_arrival(mesh, change):
    """Every region re-runs its scheduler each epoch at fixed rate: a
    caching policy or a rate table is refused before the generator is asked
    for a single arrival."""
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    inner = _generator(mesh)
    asked = []

    class Recording:
        def arrivals(self, epoch, n_slots):
            asked.append(epoch)
            return inner.arrivals(epoch, n_slots)

    config = replace(EpochConfig(epoch_slots=150, n_epochs=3), **change)
    with pytest.raises(ValueError, match="fixed rate"):
        run_epochs_sharded(
            plan, Recording(), sharded_centralized_factory(), mesh.network.model, config
        )
    assert asked == []


@pytest.mark.parametrize("rate, diverges", [(0.012, False), (0.1, True)],
                         ids=["stable", "overloaded"])
def test_single_shard_equivalence(mesh, rate, diverges):
    """n_shards=1 replays the monolithic loop exactly, at a stable load and
    at one whose backlog trips the divergence stop."""
    config = EpochConfig(epoch_slots=150, n_epochs=6, divergence_factor=4.0)
    mono, shard, mono_seen, shard_seen = _mono_and_single_shard(mesh, config, rate)

    assert _functional(shard) == _functional(mono)
    assert shard.diverged == mono.diverged == diverges
    assert np.array_equal(shard.backlog_series(), mono.backlog_series())
    assert np.array_equal(shard.queues.delay_array(), mono.queues.delay_array())
    assert np.array_equal(shard.queues.backlog, mono.queues.backlog)
    assert all(r.reconciled == 0 for r in shard.records)
    shard.queues.check_conservation()

    # One loop, two stages: everything the loop itself emits is the same.
    spans, metrics = shard_seen
    assert (spans, metrics) == mono_seen
    assert {name for name, _ in spans} == set(SHARED_STAGE_SPANS) - {"epoch.annotate"}
    assert any(name == "traffic.delivered" and value > 0 for _, name, _, value in metrics)


#: A drift threshold loose enough that the light-load runs below reuse
#: schedules as well as recompute them (``DRIFT_THRESHOLD`` recomputes
#: every epoch here).
LOOSE_DRIFT = 0.5


def _caching_factory(policy, caches):
    """Each shard's greedy scheduler wrapped in a cache of the factory's
    own, collected in ``caches``."""

    def factory(shard, shard_model):
        cache = ScheduleCache(
            centralized_scheduler(shard_model, overhead_seconds=0.3),
            policy=policy,
            model=shard_model,
            epoch_slots=150,
        )
        caches.append(cache)
        return cache

    return factory


@pytest.mark.parametrize("policy", ["drift-threshold", "patch"])
def test_a_factorys_own_cache_is_just_a_scheduler(mesh, policy):
    """The engine keeps no cache of its own and reads none: shard caches
    the factory built reuse and patch schedules, yet every record carries
    no cache decision and every demanded multi-shard epoch books its
    boundary reports and exactly its reconciled memberships."""
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    caches = []
    config = EpochConfig(epoch_slots=150, n_epochs=6, divergence_factor=4.0)
    with drift_threshold(LOOSE_DRIFT):
        trace = run_epochs_sharded(
            plan, _generator(mesh), _caching_factory(policy, caches),
            mesh.network.model, config, control=ControlPlaneModel.default_priced(),
        )
    trace.queues.check_conservation()
    assert len(caches) == plan.n_shards
    assert sum(c.stats.hits + c.stats.patches for c in caches) > 0
    assert not any(r.cache_hit or r.patched or r.drift for r in trace.records)

    booked = ledger_counts(trace.ledger, "sharded")
    demanded = [r for r in trace.records if r.demand_scheduled > 0]
    assert len(demanded) == len(trace.records)
    for record in demanded:
        assert booked[record.epoch, "report"] > 0
        assert booked.get((record.epoch, "reconcile"), 0) == record.reconciled


@pytest.mark.parametrize("policy", ["drift-threshold", "patch"])
def test_one_shard_with_its_own_cache_serves_the_monolithic_cached_rounds(
    mesh, policy
):
    """On one shard, a factory's cache schedules exactly what the same
    cache handed to ``run_epochs`` schedules: identical served rounds,
    delays and backlogs; only the monolithic records name the decisions."""
    model = mesh.network.model
    config = EpochConfig(epoch_slots=150, n_epochs=6, divergence_factor=4.0)
    mono_cache = ScheduleCache(
        centralized_scheduler(model, overhead_seconds=0.3),
        policy=policy,
        model=model,
        epoch_slots=150,
    )
    plan = plan_for_network(mesh.links, mesh.network, n_shards=1,
                            interference_radius_m=80.0)
    caches = []
    with drift_threshold(LOOSE_DRIFT):
        mono = run_epochs(mesh.links, _generator(mesh), mono_cache, config, model=model)
        shard = run_epochs_sharded(
            plan, _generator(mesh), _caching_factory(policy, caches), model, config
        )

    decisions = ("cache_hit", "patched", "drift")
    assert mono_cache.stats.hits + mono_cache.stats.patches > 0
    assert any(r.cache_hit or r.patched for r in mono.records)
    assert [replace(r, **dict.fromkeys(decisions, None)) for r in shard.records] == [
        replace(r, **dict.fromkeys(decisions, None))
        for r in mono.records
    ]
    assert not any(r.cache_hit or r.patched or r.drift for r in shard.records)
    assert caches[0].stats == mono_cache.stats
    assert np.array_equal(shard.queues.delay_array(), mono.queues.delay_array())
    assert np.array_equal(shard.queues.backlog, mono.queues.backlog)


def assert_traces_identical(a, b):
    assert a.records == b.records
    assert a.diverged == b.diverged
    assert np.array_equal(a.queues.delay_array(), b.queues.delay_array())
    assert np.array_equal(a.queues.backlog, b.queues.backlog)
    a.queues.check_conservation()


@pytest.fixture
def no_pools(monkeypatch):
    """Make constructing either ``concurrent.futures`` pool fail the test,
    however the constructing module bound the class's name."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sharded engine opened a pool")

    for pool in (
        concurrent.futures.thread.ThreadPoolExecutor,
        concurrent.futures.process.ProcessPoolExecutor,
    ):
        monkeypatch.setattr(pool, "__init__", refuse)


def test_pool_keywords_change_nothing_and_open_no_pool(mesh, no_pools):
    """The perf ledger's ``sharded_24x24`` call, ``executor="process",
    max_workers=2``, and its thread twin schedule the shards in the
    caller's thread: no pool, no child process, and the keyword-free
    call's trace."""
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=4, divergence_factor=4.0)

    def run(**keywords):
        factory = sharded_distributed_factory(
            mesh.network, fdd_on_network, config=PAPER_PROTOCOL, seed=29
        )
        return run_epochs_sharded(
            plan, _generator(mesh), factory, mesh.network.model, config,
            **keywords,
        )

    base = run()
    for executor in ("process", "thread"):
        assert_traces_identical(base, run(max_workers=2, executor=executor))
    assert multiprocessing.active_children() == []


def _run_centralized(mesh, *, n_shards, **keywords):
    plan = plan_for_network(mesh.links, mesh.network, n_shards=n_shards,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=4, divergence_factor=4.0)
    return run_epochs_sharded(
        plan, _generator(mesh), sharded_centralized_factory(),
        mesh.network.model, config, **keywords,
    )


def test_pool_keywords_change_nothing_on_centralized_shards(mesh, no_pools):
    """Per-shard greedy sees the same serial fan-out whichever executor is
    named."""
    base = _run_centralized(mesh, n_shards=4)
    for executor in ("process", "thread"):
        assert_traces_identical(
            base, _run_centralized(mesh, n_shards=4, max_workers=4, executor=executor)
        )
    assert base.scheduling_wall_seconds is not None
    assert base.scheduling_wall_seconds > 0.0


def test_pool_keywords_change_nothing_on_one_shard(mesh, no_pools):
    """The degenerate 1-shard plan (the monolithic-equivalent path) too."""
    assert_traces_identical(
        _run_centralized(mesh, n_shards=1),
        _run_centralized(mesh, n_shards=1, max_workers=2, executor="process"),
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_workers_never_change_results(mesh, workers, no_pools):
    """Same seed, any worker count: byte-identical traces."""
    model = mesh.network.model
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=5, divergence_factor=4.0)

    def run(max_workers):
        factory = sharded_distributed_factory(
            mesh.network, fdd_on_network, config=PAPER_PROTOCOL, seed=29
        )
        return run_epochs_sharded(
            plan, _generator(mesh), factory, model, config,
            max_workers=max_workers,
        )

    assert_traces_identical(run(1), run(workers))


def test_unknown_executor_rejected(mesh):
    with pytest.raises(ValueError, match="executor"):
        _run_centralized(mesh, n_shards=2, max_workers=2, executor="fibers")
    with pytest.raises(ValueError, match="max_workers"):
        _run_centralized(mesh, n_shards=2, max_workers=0)


def test_multi_shard_run_is_conservative_and_accounted(mesh):
    """A real 4-shard run: packet conservation, shard-aware records, and
    budget-consistent feasibility of every reconciled round."""
    model = mesh.network.model
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    assert plan.n_shards == 4
    config = EpochConfig(epoch_slots=150, n_epochs=5, divergence_factor=4.0)
    trace = run_epochs_sharded(
        plan,
        _generator(mesh),
        sharded_centralized_factory(),
        model,
        config,
    )
    trace.queues.check_conservation()
    assert trace.plan is plan
    for record in trace.records:
        assert record.n_shards == 4
        assert record.reconciled >= 0
    # The engine measured its scheduling compute, and the critical path can
    # never exceed the summed compute.
    assert trace.scheduling_seconds > 0.0
    assert 0.0 < trace.critical_path_seconds <= trace.scheduling_seconds + 1e-9


def test_multi_shard_run_books_what_its_repair_pass_verified(mesh):
    """Reconciliation is the exact verify-and-repair pass, and its report is
    the round's: with no guard margin the pass has violations to repair,
    the ``truth.*`` counters book exactly the memberships the records say
    were serialized, and every served membership's margin clears β."""
    model = mesh.network.model
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0, guard_factor=0.0)
    config = EpochConfig(epoch_slots=150, n_epochs=5, divergence_factor=4.0)
    obs = Obs.create(ObsConfig(level="metrics"))
    trace = run_epochs_sharded(
        plan, _generator(mesh), sharded_centralized_factory(), model, config, obs=obs
    )
    labels = {"engine": "sharded", "phase": "sharded.schedule"}
    registry = obs.registry
    reconciled = sum(r.reconciled for r in trace.records)
    assert reconciled > 0
    assert counter_value(registry, "truth.repaired_tx", **labels) == reconciled
    assert counter_value(registry, "truth.violations", **labels) >= reconciled
    margins = metric(registry, "sinr.margin", **labels)
    assert margins["count"] == sum(r.demand_scheduled for r in trace.records)
    assert margins["min"] >= 1.0


def _exploding_factory(fail_epoch: int):
    """Shard 1's scheduler raises from ``fail_epoch`` on."""

    def factory(shard, shard_model):
        inner = centralized_scheduler(shard_model)
        fail_here = shard.index == 1

        def scheduler(links, epoch):
            if fail_here and epoch >= fail_epoch:
                raise ValueError("synthetic shard meltdown")
            return inner(links, epoch)

        return scheduler

    return factory


@pytest.mark.parametrize("engine", ["sharded", "thread", "process", "monolithic"])
def test_shard_scheduler_exception_is_annotated_and_poisons_queues(
    mesh, engine, no_pools
):
    """``thread`` and ``process`` are the sharded engine called with that
    (inert) ``executor`` and ``max_workers=2``: the failure is the same."""
    network = mesh.network
    config = EpochConfig(epoch_slots=150, n_epochs=5, divergence_factor=4.0)
    generator = _generator(mesh, rate=0.02)
    seen = {}

    def on_epoch(record, queues):
        seen["queues"] = queues
        seen["epoch"] = record.epoch

    if engine == "monolithic":
        # Same loop, same poison point — but the scheduler's own exception
        # type comes through, not a shard annotation.
        plan = plan_for_network(mesh.links, network, n_shards=2,
                                interference_radius_m=80.0)
        scheduler = _exploding_factory(fail_epoch=2)(plan.shards[1], network.model)
        with pytest.raises(ValueError, match="synthetic shard meltdown"):
            run_epochs(mesh.links, generator, scheduler, config, on_epoch=on_epoch)
    else:
        plan = plan_for_network(mesh.links, network, n_shards=4,
                                interference_radius_m=80.0)
        with pytest.raises(ShardScheduleError) as err:
            run_epochs_sharded(
                plan,
                generator,
                _exploding_factory(fail_epoch=2),
                network.model,
                config,
                on_epoch=on_epoch,
                **({} if engine == "sharded" else {"max_workers": 2, "executor": engine}),
            )
        assert err.value.shard_index == 1 and err.value.epoch == 2
        assert "shard 1" in str(err.value) and "epoch 2" in str(err.value)
        assert "synthetic shard meltdown" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)

    # Epochs before the meltdown completed normally...
    assert seen["epoch"] == 1
    # ...and the half-mutated queues are poisoned against further use: the
    # failing epoch's arrivals were booked but never served, so extending
    # the trace would silently violate conservation.
    queues = seen["queues"]
    with pytest.raises(RuntimeError, match="unusable"):
        queues.arrive(np.zeros(network.n_nodes, dtype=np.int64), 0)
    with pytest.raises(RuntimeError, match="unusable"):
        serve_slot(queues, np.array([], dtype=np.intp), 0)


@pytest.mark.parametrize("side, rate", [(16, 0.002), (24, 0.0012)], ids=["16x16", "24x24"])
def test_lockstep_regions_book_what_each_region_books_alone(side, rate, monkeypatch):
    """E9's plan: every region's FDD, packed as a lane of the lockstep pack,
    books the StepTally (hence the overhead) and the schedule that
    ``fdd_on_network`` books for it alone on its sub-network."""
    network, gateways, links = grid_mesh(FULL, side, side, "sharded-forest", side)
    plan = sharded_plan(links, network)
    config = EpochConfig(epoch_slots=300, n_epochs=3)

    def run(protocol):
        factory = sharded_distributed_factory(
            network, protocol, config=backbone_protocol(network), seed=3
        )
        generator = PoissonArrivals(network.n_nodes, rate, gateways=gateways, seed=5)
        return run_epochs_sharded(plan, generator, factory, network.model, config)

    alone, laned = [], []

    def regional_fdd(*args, **kwargs):  # no library protocol: called alone
        result = fdd_on_network(*args, **kwargs)
        alone.append((result.tally, result.schedule.slots))
        return result

    reference = run(regional_fdd)
    finish = protocol_module.theorem4_result

    def recording(*args):
        result = finish(*args)
        laned.append((result.tally, result.schedule.slots))
        return result

    monkeypatch.setattr(protocol_module, "theorem4_result", recording)
    assert_traces_identical(run(fdd_on_network), reference)
    assert len(alone) >= plan.n_shards * config.n_epochs
    assert laned == alone


def _mixed_factory(first, rest, alone):
    """Shard 0 from the library factory ``first``, the others from
    ``rest``; with ``alone``, every scheduler is called on its own."""

    def factory(shard, shard_model):
        scheduler = (first if shard.index == 0 else rest)(shard, shard_model)
        if alone:
            return lambda links, epoch: scheduler(links, epoch)
        return scheduler

    return factory


def _custom(shard, shard_model):
    return centralized_scheduler(shard_model)


@pytest.mark.parametrize("kind", ["fdd+pdd", "greedy+custom"])
def test_mixed_lanes_and_shards_serve_what_every_shard_alone_serves(mesh, kind):
    """One closed-form lane beside shards the engine calls one by one: the
    run is the one in which every shard is called alone, and the lane ran
    in a lockstep span of its own."""
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=4, divergence_factor=4.0)
    if kind == "fdd+pdd":
        first = sharded_distributed_factory(
            mesh.network, fdd_on_network, config=PAPER_PROTOCOL, seed=29
        )
        rest = sharded_distributed_factory(
            mesh.network, pdd_on_network, config=PAPER_PROTOCOL, seed=29
        )
    else:
        first, rest = sharded_centralized_factory(), _custom

    def run(alone):
        obs = _spans_obs()
        trace = run_epochs_sharded(
            plan, _generator(mesh), _mixed_factory(first, rest, alone),
            mesh.network.model, config, obs=obs,
        )
        return trace, [
            span.labels for span in obs.recorder.spans if span.name == "sharded.schedule"
        ]

    (laned, spans), (reference, alone_spans) = run(False), run(True)
    assert_traces_identical(laned, reference)
    assert any(labels.get("lanes") == [0] for labels in spans)
    assert not any(labels.get("shard") == 0 for labels in spans)
    assert not any("lanes" in labels for labels in alone_spans)


def test_a_raising_lane_is_annotated_with_its_shard(mesh):
    def factory(shard, shard_model):
        scheduler = sharded_centralized_factory()(shard, shard_model)
        if shard.index == 1:

            def melt(links, epoch):
                raise ValueError("synthetic lane meltdown")

            scheduler.lane = replace(scheduler.lane, open=melt)
        return scheduler

    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=3, divergence_factor=4.0)
    with pytest.raises(ShardScheduleError) as err:
        run_epochs_sharded(plan, _generator(mesh), factory, mesh.network.model, config)
    assert err.value.shard_index == 1 and err.value.epoch == 0
    assert "synthetic lane meltdown" in str(err.value)


def test_a_lane_past_max_rounds_is_rescheduled_alone(mesh):
    """A lane whose pack would exceed ``max_rounds`` has no closed form after
    all: the engine calls its scheduler, which steps the protocol, and the
    run is the one in which every region is called alone."""
    plan = plan_for_network(mesh.links, mesh.network, n_shards=4,
                            interference_radius_m=80.0)
    config = EpochConfig(epoch_slots=150, n_epochs=3, divergence_factor=4.0)
    capped = replace(PAPER_PROTOCOL, max_rounds=4)
    factory = sharded_distributed_factory(
        mesh.network, fdd_on_network, config=capped, seed=29
    )

    def run(alone):
        obs = _spans_obs()
        trace = run_epochs_sharded(
            plan, _generator(mesh, rate=0.03), _mixed_factory(factory, factory, alone),
            mesh.network.model, config, obs=obs,
        )
        return trace, [s.labels for s in obs.recorder.spans if s.name == "sharded.schedule"]

    (laned, spans), (reference, _) = run(False), run(True)
    assert_traces_identical(laned, reference)
    # Lanes opened, and some fell back to their own call in the same epoch.
    packed = {(l["epoch"], i) for l in spans if "lanes" in l for i in l["lanes"]}
    alone = {(l["epoch"], l["shard"]) for l in spans if "shard" in l}
    assert packed & alone


def _split_region_mesh():
    """Two tiles: the left one holds two 3x3 clusters 1.6 km apart, so the
    left region's sensitivity sub-graph is split and no K saturates it
    (its lane never opens); the right one holds one cluster."""
    radio = RadioConfig()
    grid = np.stack(np.meshgrid(np.arange(3), np.arange(3)), -1).reshape(-1, 2) * 30.0
    corners = [(100.0, 100.0), (100.0, 1700.0), (1100.0, 100.0)]
    positions = np.concatenate([grid + corner for corner in corners])
    network = Network(
        positions,
        uniform_tx_power(positions.shape[0]),
        radio,
        LogDistancePathLoss(alpha=radio.alpha),
        SquareRegion(2000.0),
    )
    gateways = np.array([0, 9, 18])
    forest = build_routing_forest(network.comm_adj, gateways, rng=3)
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, plan_for_network(links, network, n_shards=2,
                                               interference_radius_m=80.0)


@pytest.mark.parametrize("demanded", ["split-region-only", "both-regions"])
def test_a_lane_that_never_opens_steps_its_protocol(demanded):
    """A region whose sub-GS is not strongly connected has no closed form:
    its lane opens ``None`` and the engine steps its protocol, also in
    epochs where it is the only region asked (no lockstep pack runs).  The
    run is the one in which every region is called alone, and the CPU of
    every span, the lane's opening included, is booked."""
    network, gateways, plan = _split_region_mesh()
    [split] = [s.index for s in plan.shards if s.links.heads.min() < 9]
    assert not np.isfinite(network.interference_diameter())
    rate = np.full(network.n_nodes, 0.01)
    if demanded == "split-region-only":
        rate[network.positions[:, 0] >= 1000.0] = 0.0
    factory = sharded_distributed_factory(
        network, fdd_on_network, config=PAPER_PROTOCOL, seed=5
    )
    config = EpochConfig(epoch_slots=150, n_epochs=3, divergence_factor=4.0)

    def run(alone):
        obs = _spans_obs()
        trace = run_epochs_sharded(
            plan,
            PoissonArrivals(network.n_nodes, rate, gateways=gateways, seed=2),
            _mixed_factory(factory, factory, alone),
            network.model,
            config,
            obs=obs,
        )
        return trace, [s for s in obs.recorder.spans if s.name == "sharded.schedule"]

    (laned, spans), (reference, _) = run(False), run(True)
    assert_traces_identical(laned, reference)
    assert sum(r.demand_scheduled for r in laned.records) > 0
    labels = [span.labels for span in spans]
    opened = {(l["epoch"], i) for l in labels if "lanes" in l for i in l["lanes"]}
    stepped = {(l["epoch"], l["shard"]) for l in labels if "shard" in l}
    assert {(e, split) for e in range(config.n_epochs)} <= opened & stepped
    assert all(shard == split for _, shard in stepped)
    assert laned.scheduling_seconds == pytest.approx(sum(span.cpu_s for span in spans))
    if demanded == "split-region-only":
        assert all(l.get("lanes", [split]) == [split] for l in labels)
        assert laned.critical_path_seconds == pytest.approx(laned.scheduling_seconds)


def test_a_centralized_shard_with_an_undecodable_link_still_raises(mesh):
    """A link that cannot decode alone keeps its shard out of the lockstep
    pack; the shard's own GreedyPhysical refuses it, annotated with the
    shard, while the other shards' lanes pack."""
    heads, tails = mesh.links.heads, mesh.links.tails.copy()
    far = np.linalg.norm(mesh.network.positions - mesh.network.positions[heads[0]], axis=1)
    tails[0] = int(np.argmax(far))
    links = replace(mesh.links, tails=tails)
    plan = plan_for_network(links, mesh.network, n_shards=4, interference_radius_m=80.0)
    [bad] = [s.index for s in plan.shards if 0 in s.link_indices]
    rate = np.zeros(mesh.network.n_nodes)
    rate[heads[0]] = 0.05
    config = EpochConfig(epoch_slots=150, n_epochs=3, divergence_factor=4.0)
    for generator in (
        PoissonArrivals(mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=1),
        _generator(mesh, rate=0.03),
    ):
        with pytest.raises(ShardScheduleError) as err:
            run_epochs_sharded(
                plan, generator, sharded_centralized_factory(), mesh.network.model, config
            )
        assert err.value.shard_index == bad
        assert "infeasible even alone" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)
