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
* Failure: a raising shard scheduler surfaces as
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

from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL, grid_scenario
from repro.obs import Obs, ObsConfig
from repro.phy.radio import RateTable
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
from tests.conftest import BufferRecorder, counter_value, ledger_counts, metric, serve_slot

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


#: Loose enough that the light-load runs below reuse schedules as well as
#: recompute them (the default threshold recomputes every epoch here).
DRIFT_THRESHOLD = 0.5


def _caching_factory(policy, caches):
    """Each shard's greedy scheduler wrapped in a cache of the factory's
    own, collected in ``caches``."""

    def factory(shard, shard_model):
        cache = ScheduleCache(
            centralized_scheduler(shard_model, overhead_seconds=0.3),
            policy=policy,
            drift_threshold=DRIFT_THRESHOLD,
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
        drift_threshold=DRIFT_THRESHOLD,
        model=model,
        epoch_slots=150,
    )
    mono = run_epochs(mesh.links, _generator(mesh), mono_cache, config, model=model)
    plan = plan_for_network(mesh.links, mesh.network, n_shards=1,
                            interference_radius_m=80.0)
    caches = []
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
