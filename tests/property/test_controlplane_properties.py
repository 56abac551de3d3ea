"""Property tests for in-band control-plane pricing (DESIGN.md §10).

Two laws over randomized operating points:

* **Zero-price identity** — with every message class at 0 bytes, both
  epoch engines reproduce their unpriced traces epoch-for-epoch, the
  monolithic one under every reschedule policy (hypothesis draws the rate,
  policy or shard count, and arrival seed).
* **Monotone pricing** — at a light operating point whose demand path is
  price-invariant (the schedule cycles many times per epoch, so a slot or
  two of control overhead never changes what gets served), scaling every
  message price up never books less control air, and a priced run's
  per-epoch overhead never drops below the free idealization's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    RESCHEDULE_POLICIES,
    ControlPlaneModel,
    EpochConfig,
    PoissonArrivals,
    centralized_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
)
from repro.util.rng import spawn

FIELDS = (
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
    "reconciled",
)


def _functional(trace):
    return [tuple(getattr(r, f) for f in FIELDS) for r in trace.records]


@pytest.fixture(scope="module")
def mesh():
    network = grid_network(5, 5, density_per_km2=1000.0)
    gateways = planned_gateways(5, 5, 2)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(31, "f"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links


@given(
    rate=st.floats(min_value=0.003, max_value=0.03),
    policy=st.sampled_from(RESCHEDULE_POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_zero_priced_monolithic_trace_is_identical(mesh, rate, policy, seed):
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=100, n_epochs=4, reschedule_policy=policy)

    def generator():
        return PoissonArrivals(
            network.n_nodes, rate, gateways=gateways, seed=spawn(seed, "g")
        )

    bare = run_epochs(
        links,
        generator(),
        centralized_scheduler(network.model),
        config,
        model=network.model,
    )
    priced = run_epochs(
        links,
        generator(),
        centralized_scheduler(network.model),
        config,
        model=network.model,
        control=ControlPlaneModel(),
    )
    assert _functional(priced) == _functional(bare)
    assert np.array_equal(priced.queues.delay_array(), bare.queues.delay_array())
    assert priced.ledger.seconds() == 0.0


@given(
    rate=st.floats(min_value=0.003, max_value=0.02),
    n_shards=st.sampled_from([1, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_zero_priced_sharded_trace_is_identical(mesh, rate, n_shards, seed):
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=100, n_epochs=3)
    plan = plan_for_network(
        links, network, n_shards=n_shards, interference_radius_m=80.0
    )

    def generator():
        return PoissonArrivals(
            network.n_nodes, rate, gateways=gateways, seed=spawn(seed, "g")
        )

    bare = run_epochs_sharded(
        plan, generator(), sharded_centralized_factory(), network.model, config
    )
    priced = run_epochs_sharded(
        plan,
        generator(),
        sharded_centralized_factory(),
        network.model,
        config,
        control=ControlPlaneModel(),
    )
    assert _functional(priced) == _functional(bare)
    assert np.array_equal(priced.queues.backlog, bare.queues.backlog)
    assert priced.ledger.seconds() == 0.0


@given(
    scales=st.tuples(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=4.0),
    ),
    seed=st.integers(min_value=0, max_value=2**12),
)
@settings(max_examples=10, deadline=None)
def test_priced_overhead_monotone_in_message_prices(mesh, scales, seed):
    """Scaling every message price up books monotonically more control air,
    and the priced overhead never undercuts the free idealization.

    The operating point is light on purpose: a short schedule cycling many
    times per epoch serves every backlog whatever the (few) control slots
    cost, so the message *counts* are price-invariant and the comparison
    is pure pricing.
    """
    network, gateways, links = mesh
    lo, hi = sorted(scales)
    config = EpochConfig(epoch_slots=150, n_epochs=4, reschedule_policy="patch")

    def run(scale):
        generator = PoissonArrivals(
            network.n_nodes, 0.006, gateways=gateways, seed=spawn(seed, "g")
        )
        return run_epochs(
            links,
            generator,
            centralized_scheduler(network.model),
            config,
            model=network.model,
            control=ControlPlaneModel.default_priced().scaled(scale),
        )

    free, low, high = run(0.0), run(lo), run(hi)
    # Price-invariant demand path => identical message census.
    assert (
        free.control_messages_total
        == low.control_messages_total
        == high.control_messages_total
    )
    assert low.ledger.seconds() <= high.ledger.seconds()
    assert free.ledger.seconds() == 0.0
    for f_rec, l_rec, h_rec in zip(free.records, low.records, high.records):
        assert f_rec.overhead_slots <= l_rec.overhead_slots <= h_rec.overhead_slots
        assert f_rec.control_slots == 0
        assert l_rec.control_slots <= h_rec.control_slots
