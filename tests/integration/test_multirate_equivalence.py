"""Degenerate-table equivalence: the multi-rate refactor must be invisible
until the table actually has tiers.

The load-bearing guarantee of the DESIGN.md §12 refactor is differential:
under the **degenerate** single-tier :class:`~repro.phy.radio.RateTable`
(threshold ``β``, rate 1) every engine that takes a table — ``run_epochs``
under every reschedule policy with a live FDD scheduler, and the admission
engine with an actively controlling workload — reproduces its table-less
(``rate_table=None``) trace bit-for-bit: every :class:`EpochRecord`
field, per-packet delays, final backlogs.  Slot memberships are scheduled
by the ``SINR >= β`` contract either way; the degenerate table's
annotation grants every membership exactly one packet per play, which must
be *indistinguishable* from the seed's rate-less serving path — including
through the patching cache (demand-matching in packets collapses to
membership arithmetic).  The sharded engine serves at fixed rate and
rejects a table.
"""

import numpy as np
import pytest

from repro.core.fdd import fdd_on_network
from repro.experiments.common import PAPER_PROTOCOL
from repro.phy.radio import RateTable
from repro.routing import build_routing_forest, planned_gateways
from repro.scheduling.links import forest_link_set
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    KneeTracker,
    PoissonArrivals,
    centralized_scheduler,
    distributed_scheduler,
    run_epochs,
)
from repro.util.rng import spawn

#: Every behavioural field of an EpochRecord: a degenerate-table run must
#: match the table-less run on all of them, cache decisions included.
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

DEGENERATE = RateTable.degenerate(10.0)


def _functional(record):
    return tuple(getattr(record, f) for f in ALL_FIELDS)


def assert_traces_identical(rated, bare):
    assert [_functional(r) for r in rated.records] == [
        _functional(r) for r in bare.records
    ]
    assert rated.diverged == bare.diverged
    assert np.array_equal(rated.queues.delay_array(), bare.queues.delay_array())
    assert np.array_equal(rated.queues.backlog, bare.queues.backlog)
    rated.queues.check_conservation()
    # The rated run really went through the rate-serving path: every play
    # was annotated, and the realized rate was exactly the seed's 1.0.
    assert rated.queues.plays_total > 0
    assert rated.queues.served_total == rated.queues.plays_total


@pytest.fixture(scope="module")
def mesh():
    network = grid_network(8, 8, density_per_km2=1000.0)
    gateways = planned_gateways(8, 8, 4)
    forest = build_routing_forest(network.comm_adj, gateways, rng=spawn(23, "f"))
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    assert DEGENERATE.rates.tolist() == [1]
    assert DEGENERATE.thresholds.tolist() == [network.model.radio.beta]
    return network, gateways, links


def _poisson(network, gateways, rate=0.012):
    return PoissonArrivals(
        network.n_nodes, rate, gateways=gateways, seed=spawn(23, "g")
    )


@pytest.mark.parametrize("policy", ["always", "drift-threshold", "patch"])
def test_degenerate_table_run_epochs_is_bit_identical(mesh, policy):
    """run_epochs x every reschedule policy, live FDD (stochastic,
    overhead-priced): rate_table=degenerate ≡ rate_table=None.  The patch
    policy exercises packet-valued demand matching end to end."""
    network, gateways, links = mesh
    config = EpochConfig(
        epoch_slots=200, n_epochs=5, divergence_factor=4.0, reschedule_policy=policy
    )

    def scheduler():
        return distributed_scheduler(
            network, fdd_on_network, config=PAPER_PROTOCOL, seed=23
        )

    def run(rate_table):
        from dataclasses import replace

        return run_epochs(
            links,
            _poisson(network, gateways),
            scheduler(),
            replace(config, rate_table=rate_table),
            model=network.model,
        )

    assert_traces_identical(run(DEGENERATE), run(None))


def test_degenerate_table_admission_engine_is_bit_identical(mesh):
    """An actively controlling knee tracker (blocking sessions, throttling
    flows) observes per-epoch records: identical trace, identical
    admission decisions under the degenerate table."""
    network, gateways, links = mesh

    def run(rate_table):
        cfg = FlowConfig.for_offered_rate(3.0 * 0.019, links.n_links, 200)
        workload = FlowWorkload(
            links, cfg, controller=KneeTracker(window=3), seed=spawn(23, "wl")
        )
        config = EpochConfig(
            epoch_slots=200, n_epochs=10, divergence_factor=8.0, rate_table=rate_table
        )
        trace = run_epochs(
            links,
            workload,
            centralized_scheduler(network.model),
            config,
            model=network.model,
            on_epoch=workload.observe,
        )
        return trace, workload

    rated, rated_wl = run(DEGENERATE)
    bare, bare_wl = run(None)
    assert_traces_identical(rated, bare)
    assert rated_wl.sessions_blocked == bare_wl.sessions_blocked > 0
    assert rated_wl.packets_throttled == bare_wl.packets_throttled


def test_rate_table_without_model_fails_loudly(mesh):
    """A rate table needs the interference oracle: forgetting model= must
    raise, not silently serve fixed-rate."""
    network, gateways, links = mesh
    config = EpochConfig(epoch_slots=50, n_epochs=2, rate_table=DEGENERATE)
    with pytest.raises(ValueError, match="model"):
        run_epochs(
            links,
            _poisson(network, gateways),
            centralized_scheduler(network.model),
            config,
        )


def test_multi_tier_table_changes_serving_but_conserves_packets(mesh):
    """The non-degenerate contract is *not* a no-op — it delivers at least
    as much, strictly more somewhere on this grid — and every extra packet
    is still conserved through the queues."""
    network, gateways, links = mesh
    table = RateTable.geometric(network.model.radio.beta)

    def run(rate_table):
        from dataclasses import replace

        config = EpochConfig(
            epoch_slots=200, n_epochs=5, divergence_factor=4.0, rate_table=rate_table
        )
        return run_epochs(
            links,
            _poisson(network, gateways, rate=0.019),
            centralized_scheduler(network.model),
            config,
            model=network.model,
        )

    rated, bare = run(table), run(None)
    rated.queues.check_conservation()
    assert rated.queues.served_total > rated.queues.plays_total
    assert rated.delivered_total >= bare.delivered_total
