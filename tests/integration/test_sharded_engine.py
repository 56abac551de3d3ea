"""Integration tests for the sharded multi-region epoch engine.

* Differential equivalence: the sharded engine with ``n_shards=1`` must
  reproduce the monolithic ``run_epochs`` epoch-for-epoch (backlogs,
  delivered, overhead, cache decisions, per-packet delays) for every
  reschedule policy — the harness that keeps the refactor honest.  The
  FDD variant of the same harness lives in
  ``benchmarks/test_bench_sharded.py``.  The same runs, observed at spans
  level, pin that the two entry points really share one loop: identical
  shared-stage spans and ``traffic.*`` metrics up to the ``engine`` label.
* Determinism: identical traces for ``max_workers=1`` vs ``max_workers=4``
  given the same seed — parallelism never changes results.
* Multi-shard sanity: conservation, feasible reconciled rounds, and
  shard-aware accounting on a real 4-shard run.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL, grid_scenario
from repro.obs import BufferRecorder, Obs, ObsConfig
from repro.phy.radio import RateTable
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    RESCHEDULE_POLICIES,
    centralized_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
)
from repro.util.rng import spawn

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


def _mono_and_single_shard(mesh, config):
    """The same run through both entry points, each under a spans-level Obs."""
    model = mesh.network.model
    mono_obs, shard_obs = _spans_obs(), _spans_obs()
    mono = run_epochs(
        mesh.links,
        _generator(mesh),
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
        plan, _generator(mesh), factory, model, config, obs=shard_obs
    )
    return mono, shard, _loop_observables(mono_obs), _loop_observables(shard_obs)


@pytest.mark.parametrize("policy", RESCHEDULE_POLICIES)
def test_single_shard_equivalence_all_policies(mesh, policy):
    """n_shards=1 replays the monolithic loop exactly, per policy."""
    config = EpochConfig(
        epoch_slots=150,
        n_epochs=6,
        divergence_factor=4.0,
        reschedule_policy=policy,
    )
    mono, shard, mono_seen, shard_seen = _mono_and_single_shard(mesh, config)

    assert _functional(shard) == _functional(mono)
    assert shard.diverged == mono.diverged
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

    # Multi-rate serving adds the loop's annotate stage; same identity.
    table = RateTable.geometric(mesh.network.radio.beta)
    mono, shard, mono_seen, shard_seen = _mono_and_single_shard(
        mesh, replace(config, rate_table=table)
    )
    assert shard.records == mono.records
    assert shard_seen == mono_seen
    assert {name for name, _ in shard_seen[0]} == set(SHARED_STAGE_SPANS)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_workers_never_change_results(mesh, workers):
    """Same seed, different pool sizes: byte-identical traces."""
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

    serial = run(1)
    pooled = run(workers)
    assert serial.records == pooled.records
    assert np.array_equal(serial.queues.delay_array(), pooled.queues.delay_array())
    assert np.array_equal(serial.queues.backlog, pooled.queues.backlog)


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
    assert registry.counter_value("truth.repaired_tx", **labels) == reconciled
    assert registry.counter_value("truth.violations", **labels) >= reconciled
    margins = registry.histogram("sinr.margin", **labels)
    assert margins.count == sum(r.demand_scheduled for r in trace.records)
    assert margins.min >= 1.0
