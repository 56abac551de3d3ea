"""Differential tests for the sharded engine's process-pool backend.

``executor="process"`` changes *where* shard schedulers run, never *what*
they produce: every stateful object (per-shard caches, the control
ledger, the queues) stays in the parent, workers receive only a
demand snapshot + epoch and return an ``EpochSchedule`` + their CPU
seconds.  These tests pin the contract:

* serial / thread-pool / process-pool runs are bit-identical — records,
  per-packet delays, final backlogs — on the degenerate 1-shard plan and
  on a real 4-shard plan, for every reschedule policy, and for both the
  centralized and the distributed (FDD) factories;
* everything the pool must ship — :class:`LinkShard`, both scheduler
  factories — survives a pickle round-trip and still builds working,
  deterministic schedulers;
* a shard scheduler blowing up — or a pool worker killed outright —
  surfaces as :class:`ShardScheduleError` naming the shard and epoch,
  *before* the epoch's serving mutates the delivery accounting, poisons
  the queues against further use and shuts both pools down; the
  monolithic engine fails the same way through the same loop, re-raising
  the scheduler's own exception;
* rounds answered from every shard's cache replay bit-identically and
  book no coordination messages.
"""

import faulthandler
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    ScheduleCache,
    ShardScheduleError,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
    sharded_distributed_factory,
)
from repro.traffic import sharded as sharded_engine
from repro.traffic.epoch import centralized_scheduler
from repro.util.rng import spawn


class ExplodingFactory:
    """Picklable factory whose shard-1 scheduler fails at ``fail_epoch``: it
    raises, or with ``kill`` takes its whole process down on the spot (what
    an OOM-killed pool worker looks like from the parent)."""

    def __init__(self, fail_epoch: int, kill: bool = False):
        self.fail_epoch = fail_epoch
        self.kill = kill

    def __call__(self, shard, shard_model):
        inner = centralized_scheduler(shard_model)
        fail_epoch, kill = self.fail_epoch, self.kill
        fail_here = shard.index == 1

        def scheduler(links, epoch):
            if fail_here and epoch >= fail_epoch:
                if kill:
                    os._exit(1)
                raise ValueError("synthetic shard meltdown")
            return inner(links, epoch)

        return scheduler


@pytest.fixture(scope="module")
def mesh():
    network = grid_network(8, 8, density_per_km2=1000.0)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(31, "f"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


def _generator(network, gateways, rate=0.012):
    return PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(31, "g")
    )


def _run(mesh, *, n_shards, policy, executor, workers, factory=None, epochs=4):
    network, gateways, links = mesh
    plan = plan_for_network(
        links, network, n_shards=n_shards, interference_radius_m=80.0
    )
    config = EpochConfig(
        epoch_slots=150,
        n_epochs=epochs,
        divergence_factor=4.0,
        reschedule_policy=policy,
    )
    return run_epochs_sharded(
        plan,
        _generator(network, gateways),
        factory if factory is not None else sharded_centralized_factory(),
        network.model,
        config,
        max_workers=workers,
        executor=executor,
    )


def assert_traces_identical(a, b):
    assert a.records == b.records
    assert a.diverged == b.diverged
    assert np.array_equal(a.queues.delay_array(), b.queues.delay_array())
    assert np.array_equal(a.queues.backlog, b.queues.backlog)
    a.queues.check_conservation()


@pytest.mark.parametrize("policy", ["always", "drift-threshold", "patch"])
def test_process_backend_bit_identical_four_shards(mesh, policy):
    serial = _run(mesh, n_shards=4, policy=policy, executor="thread", workers=1)
    threaded = _run(mesh, n_shards=4, policy=policy, executor="thread", workers=4)
    pooled = _run(mesh, n_shards=4, policy=policy, executor="process", workers=4)
    assert_traces_identical(serial, threaded)
    assert_traces_identical(serial, pooled)
    # The process backend really measured something on every path.
    assert pooled.scheduling_wall_seconds is not None
    assert pooled.scheduling_wall_seconds > 0.0
    assert serial.scheduling_wall_seconds is not None


def test_process_backend_bit_identical_single_shard(mesh):
    threaded = _run(mesh, n_shards=1, policy="always", executor="thread", workers=1)
    pooled = _run(mesh, n_shards=1, policy="always", executor="process", workers=2)
    assert_traces_identical(threaded, pooled)


def test_process_backend_bit_identical_distributed_fdd(mesh):
    network, _, _ = mesh
    factory = sharded_distributed_factory(
        network, fdd_on_network, config=PAPER_PROTOCOL, seed=31
    )
    threaded = _run(
        mesh, n_shards=4, policy="always", executor="thread", workers=4,
        factory=factory,
    )
    pooled = _run(
        mesh, n_shards=4, policy="always", executor="process", workers=4,
        factory=factory,
    )
    assert_traces_identical(threaded, pooled)


def test_unknown_executor_rejected(mesh):
    with pytest.raises(ValueError, match="executor"):
        _run(mesh, n_shards=2, policy="always", executor="fibers", workers=2)


def test_pool_payloads_pickle_round_trip(mesh):
    """Everything the process pool ships survives pickling and still works."""
    network, _, links = mesh
    plan = plan_for_network(links, network, n_shards=4, interference_radius_m=80.0)
    shard = plan.shards[0]
    clone = pickle.loads(pickle.dumps(shard))
    assert clone.index == shard.index and clone.tile == shard.tile
    assert np.array_equal(clone.link_indices, shard.link_indices)
    assert np.array_equal(clone.boundary, shard.boundary)
    assert clone.n_shards == shard.n_shards
    if shard.budget_mw is None:
        assert clone.budget_mw is None
    else:
        assert np.array_equal(clone.budget_mw, shard.budget_mw)

    from dataclasses import replace

    demanded = replace(
        shard.links, demand=np.ones(shard.links.n_links, dtype=np.int64)
    )
    shard_model = network.model.with_budget(shard.budget_mw)
    for factory in (
        sharded_centralized_factory(),
        sharded_distributed_factory(
            network, fdd_on_network, config=PAPER_PROTOCOL, seed=31
        ),
    ):
        rebuilt = pickle.loads(pickle.dumps(factory))
        original = factory(shard, shard_model)(demanded, 0)
        cloned = rebuilt(clone, shard_model)(demanded, 0)
        assert original.schedule.length == cloned.schedule.length
        for a, b in zip(original.schedule.slots, cloned.schedule.slots):
            assert a.as_array().tolist() == b.as_array().tolist()


@pytest.fixture
def pool_log(monkeypatch):
    """Record every pool the sharded engine opens and every one it shuts."""
    log = SimpleNamespace(opened=[], closed=[])

    def recorded(base):
        class Recorded(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                log.opened.append(base.__name__)

            def shutdown(self, *args, **kwargs):
                log.closed.append(base.__name__)
                super().shutdown(*args, **kwargs)

        return Recorded

    for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(
            sharded_engine, name, recorded(getattr(sharded_engine, name))
        )
    return log


@pytest.mark.parametrize("mode", ["thread", "process", "process-killed", "monolithic"])
def test_shard_scheduler_exception_is_annotated_and_poisons_queues(
    mesh, mode, pool_log
):
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=150, n_epochs=5, divergence_factor=4.0)
    generator = _generator(network, gateways, rate=0.02)
    seen = {}

    def on_epoch(record, queues):
        seen["queues"] = queues
        seen["epoch"] = record.epoch

    if mode == "monolithic":
        # Same loop, same poison point — but the scheduler's own exception
        # type comes through, not a shard annotation.
        scheduler = ExplodingFactory(fail_epoch=2)(
            SimpleNamespace(index=1), network.model
        )
        with pytest.raises(ValueError, match="synthetic shard meltdown"):
            run_epochs(links, generator, scheduler, config, on_epoch=on_epoch)
        assert pool_log.opened == []
    else:
        plan = plan_for_network(
            links, network, n_shards=4, interference_radius_m=80.0
        )
        killed = mode == "process-killed"
        # A dead worker must fail the run, never hang it: if this test is
        # still going after two minutes, dump every stack and abort.
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(ShardScheduleError) as err:
                run_epochs_sharded(
                    plan,
                    generator,
                    ExplodingFactory(fail_epoch=2, kill=killed),
                    network.model,
                    config,
                    max_workers=2,
                    executor="thread" if mode == "thread" else "process",
                    on_epoch=on_epoch,
                )
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert err.value.epoch == 2
        if killed:
            # The pool breaks as a whole: shard 0's in-flight task fails with
            # its sibling's worker, and pool.map reports the first in order.
            assert err.value.shard_index in (0, 1)
            assert isinstance(err.value.__cause__, BrokenProcessPool)
        else:
            assert err.value.shard_index == 1
            assert "shard 1" in str(err.value) and "epoch 2" in str(err.value)
            assert "synthetic shard meltdown" in str(err.value)
        # Whatever was opened was shut: the dispatch threads always, the
        # worker processes under the process backend.
        expected = ["ProcessPoolExecutor"] * (mode != "thread") + ["ThreadPoolExecutor"]
        assert pool_log.opened == expected
        assert sorted(pool_log.closed) == expected

    # Epochs before the meltdown completed normally...
    assert seen["epoch"] == 1
    # ...and the half-mutated queues are poisoned against further use: the
    # failing epoch's arrivals were booked but never served, so extending
    # the trace would silently violate conservation.
    queues = seen["queues"]
    with pytest.raises(RuntimeError, match="unusable"):
        queues.arrive(np.zeros(network.n_nodes, dtype=np.int64), 0)
    with pytest.raises(RuntimeError, match="unusable"):
        queues.serve_slot(np.array([], dtype=np.intp), 0)


def test_cached_rounds_replay_bit_identically_and_book_no_coordination(mesh):
    """Replayed rounds: deterministic serving, no coordination air.

    With an effectively infinite drift threshold every epoch after the
    first answers from cache, so the superposed round is last epoch's.  A
    second identical run pins the replay bit-identical end to end, and on
    a priced run such an epoch books no ``report`` or ``reconcile``
    message — the keep-current-round signal is no message.
    """
    network, gateways, links = mesh
    plan = plan_for_network(links, network, n_shards=4, interference_radius_m=80.0)
    config = EpochConfig(
        epoch_slots=150,
        n_epochs=6,
        divergence_factor=4.0,
        reschedule_policy="drift-threshold",
    )
    base = sharded_centralized_factory()

    def cached(shard, model):
        return ScheduleCache(
            base(shard, model),
            policy="drift-threshold",
            drift_threshold=1e9,
            model=model,
            epoch_slots=config.epoch_slots,
        )

    def run():
        return run_epochs_sharded(
            plan,
            _generator(network, gateways, rate=0.02),
            cached,
            network.model,
            config,
            max_workers=2,
            control=ControlPlaneModel.default_priced(),
        )

    first, second = run(), run()
    hits = {r.epoch for r in first.records if r.cache_hit}
    assert len(hits) >= 3, "no replay exercised — raise the drift threshold"
    assert_traces_identical(first, second)
    booked = {key[0] for key, _ in first.ledger._entries(layer="sharded")}
    assert booked and not booked & hits
