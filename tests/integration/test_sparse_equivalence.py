"""The sparse backend is a drop-in: differential proofs across every engine.

Two families of locks, in the repo's differential tradition (zero-price ==
unpriced, 1-shard == monolithic, instrumented == bare):

* **cutoff=∞ bit-identity** — a :class:`~repro.phy.sparse.SparseGainModel`
  with every entry stored reads exactly like the dense received-power
  matrix, so the monolithic, incremental-cached, sharded, and
  admission-controlled engines must produce ``EpochRecord``s, delay logs,
  and backlogs identical to the dense oracle's, for every reschedule
  policy each runs on a sparse model (``"always"`` and
  ``"drift-threshold"``; the sharded engine runs ``"always"`` only, and
  ``"patch"`` is refused before the first arrival).  This is the anchor
  that lets the finite-cutoff configuration be trusted as *the same code*
  with a physically-argued approximation, not a parallel implementation.
* **streaming accounting** — ``retain_records="stream"`` keeps O(1) state
  instead of the per-epoch record list; every aggregate the experiments
  read must match the full-log run — and a trace assembled by hand from
  the full run's records — exactly, and the one query streaming cannot
  answer (``backlog_series``) must fail loudly.
"""

from unittest import mock

import numpy as np
import pytest

from repro.experiments.common import grid_scenario
from repro.phy.sparse import sparse_gain_model
from repro.scheduling.greedy_physical import greedy_physical
from repro.traffic import (
    DEFAULT_GUARD_FACTOR,
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    PoissonArrivals,
    TrafficTrace,
    centralized_scheduler,
    make_controller,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
)
from repro.traffic.incremental import patch_schedule
from repro.util.rng import spawn


@pytest.fixture(scope="module")
def mesh():
    return grid_scenario(1000.0, rep=0, rows=6, cols=6, n_gateways=3)


@pytest.fixture(scope="module")
def sparse_oracle(mesh):
    """The cutoff=∞ sparse model: value-dense, floorless — the bit-identity
    configuration."""
    net = mesh.network
    sgm = sparse_gain_model(
        net.positions,
        net.tx_power_mw,
        net.propagation,
        net.radio,
        cutoff_m=float("inf"),
    )
    assert sgm.power.value_dense and sgm.floor_mw is None
    return sgm.interference_model(net.radio)


def _config(policy="always", n_epochs=4, retain="full"):
    return EpochConfig(
        epoch_slots=120,
        n_epochs=n_epochs,
        divergence_factor=4.0,
        reschedule_policy=policy,
        retain_records=retain,
    )


def _generator(mesh, rate=0.012):
    return PoissonArrivals(
        mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=11
    )


def _workload(mesh, controller=None, rate=0.015):
    return FlowWorkload(
        mesh.links,
        FlowConfig.for_offered_rate(rate, mesh.links.n_links, 120),
        controller=controller or make_controller("knee-tracker"),
        seed=spawn(5, "sparse-wl"),
    )


def _assert_identical(base, other):
    assert other.records == base.records  # every EpochRecord field
    assert other.diverged == base.diverged
    assert np.array_equal(other.queues.delay_array(), base.queues.delay_array())
    assert np.array_equal(other.queues.backlog, base.queues.backlog)


@pytest.mark.parametrize("policy", ["always", "drift-threshold"])
class TestCutoffInfBitIdentity:
    def test_monolithic_and_incremental(self, mesh, sparse_oracle, policy):
        """run_epochs (policy != always exercises the ScheduleCache path)."""

        def run(model):
            return run_epochs(
                mesh.links,
                _generator(mesh),
                centralized_scheduler(model, overhead_seconds=0.3),
                _config(policy),
                model=model,
                obs=None,
            )

        _assert_identical(run(mesh.network.model), run(sparse_oracle))

    def test_admission_flows(self, mesh, sparse_oracle, policy):
        def run(model):
            wl = _workload(mesh)
            trace = run_epochs(
                mesh.links,
                wl,
                centralized_scheduler(model, overhead_seconds=0.3),
                _config(policy),
                model=model,
                on_epoch=wl.observe,
            )
            return trace, wl

        base, base_wl = run(mesh.network.model)
        other, other_wl = run(sparse_oracle)
        _assert_identical(base, other)
        assert other_wl.blocking_probability == base_wl.blocking_probability
        assert other_wl.sessions_offered == base_wl.sessions_offered
        assert other_wl.sessions_blocked == base_wl.sessions_blocked


def test_patch_policy_is_refused_on_a_sparse_model_before_any_arrival(mesh, sparse_oracle):
    """The sparse arena packs waves only: ``run_epochs`` refuses the patch
    policy when it builds its cache, before the generator is asked for a
    single arrival, and ``patch_schedule`` refuses a sparse model itself."""
    generator = _generator(mesh)
    with mock.patch.object(generator, "arrivals", side_effect=AssertionError):
        with pytest.raises(ValueError, match="dense power matrix"):
            run_epochs(
                mesh.links,
                generator,
                centralized_scheduler(sparse_oracle, overhead_seconds=0.3),
                _config("patch"),
                model=sparse_oracle,
            )
    cached = greedy_physical(mesh.links, mesh.network.model)
    with pytest.raises(ValueError, match="dense power matrix"):
        patch_schedule(cached, mesh.links, sparse_oracle)


@pytest.mark.parametrize("guard", [DEFAULT_GUARD_FACTOR, 0.0],
                         ids=["guarded", "unguarded"])
def test_sharded_cutoff_inf_bit_identity(mesh, sparse_oracle, guard):
    """Same plan, same guard budgets — the sparse oracle feeds
    ``with_budget`` shard models exactly like the dense one, and the repair
    pass judges its entries exactly like the dense matrix's."""
    plan = plan_for_network(
        mesh.links, mesh.network, n_shards=4, interference_radius_m=80.0,
        guard_factor=guard,
    )

    def factory(shard, shard_model):
        return centralized_scheduler(shard_model, overhead_seconds=0.3)

    def run(model):
        return run_epochs_sharded(plan, _generator(mesh), factory, model, _config())

    base = run(mesh.network.model)
    if guard == 0.0:
        # Unguarded, the repair pass has cross-shard violations to serialize.
        assert any(r.reconciled for r in base.records)
    _assert_identical(base, run(sparse_oracle))


AGGREGATES = (
    "n_epochs_run",
    "total_slots",
    "delivered_total",
    "arrivals_total",
    "overhead_slots_total",
    "control_slots_total",
    "control_messages_total",
    "cache_hits",
    "patched_epochs",
    "cache_hit_rate",
    "reconciled_total",
)


def _assert_stream_matches_full(full, streamed):
    by_hand = TrafficTrace(full.config, records=list(full.records))
    for name in AGGREGATES:
        assert getattr(streamed, name) == getattr(full, name), name
        assert getattr(by_hand, name) == getattr(full, name), name
    assert streamed.last_record == full.last_record
    assert by_hand.last_record == full.last_record
    assert by_hand.records == full.records
    np.testing.assert_array_equal(by_hand.backlog_series(), full.backlog_series())
    assert streamed.records == []
    assert full.records != []
    with pytest.raises(RuntimeError, match="retain_records"):
        streamed.backlog_series()
    np.testing.assert_array_equal(streamed.queues.backlog, full.queues.backlog)


class TestStreamingRecords:
    """``retain_records="stream"`` drops the record list, nothing else."""

    def test_monolithic(self, mesh):
        model = mesh.network.model

        def run(retain):
            return run_epochs(
                mesh.links,
                _generator(mesh),
                centralized_scheduler(model, overhead_seconds=0.3),
                _config("drift-threshold", n_epochs=5, retain=retain),
                model=model,
            )

        _assert_stream_matches_full(run("full"), run("stream"))

    def test_sharded(self, mesh):
        plan = plan_for_network(
            mesh.links, mesh.network, n_shards=4, interference_radius_m=80.0
        )

        def factory(shard, shard_model):
            return centralized_scheduler(shard_model, overhead_seconds=0.3)

        def run(retain):
            return run_epochs_sharded(
                plan,
                _generator(mesh),
                factory,
                mesh.network.model,
                _config("always", n_epochs=5, retain=retain),
            )

        _assert_stream_matches_full(run("full"), run("stream"))
