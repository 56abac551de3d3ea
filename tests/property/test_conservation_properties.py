"""Packet conservation per link, across every configuration the loop runs.

One epoch loop (``traffic.epoch.epoch_loop``) serves every engine; this
suite checks its bookkeeping from outside, after every epoch (through
``on_epoch``), over the configurations that reach it: the monolithic
engine under each reschedule policy on the dense model and, ``"patch"``
aside (refused before the first arrival), on the sparse model truncated
at the carrier-sense radius, and the sharded engine on 1, 2 and 4 shards.  A test-side wrapper around the generator records what
entered each link, and the laws are written against the forest, not
against the queue's internals:

* globally, ``arrivals == delivered + backlog``;
* per link ``k``, ``injected[k] + sum(served_by_link[c] for children c)
  == served_by_link[k] + backlog[k]`` — what entered ``k`` either left over
  the air or still waits there;
* ``delivered == sum(served_by_link[k])`` over the links into a gateway.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.sparse import sparse_gain_model
from repro.routing import planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.links import forest_link_set
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.traffic import (
    RESCHEDULE_POLICIES,
    EpochConfig,
    PoissonArrivals,
    centralized_scheduler,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    sharded_centralized_factory,
)

SIDE = 6

#: Every configuration the loop runs: (engine, policy, backend, shards).
CONFIGURATIONS = [
    ("monolithic", policy, backend, 1)
    for policy in RESCHEDULE_POLICIES
    for backend in ("dense", "sparse")
    if (policy, backend) != ("patch", "sparse")
] + [("sharded", "always", "dense", n) for n in (1, 2, 4)]


def _mesh():
    """A 6x6 grid routed on the floored sparse graph, so every forest link
    decodes alone under both the truncated model and the exact one."""
    network = grid_network(SIDE, SIDE, density_per_km2=1000.0)
    radio = network.radio
    sparse = sparse_gain_model(
        network.positions, network.tx_power_mw, network.propagation, radio
    )
    indptr, indices = communication_csr(
        sparse.power, radio.noise_mw, radio.beta, budget_mw=sparse.floor_mw
    )
    gateways = planned_gateways(SIDE, SIDE, 3)
    forest = build_routing_forest_csr(indptr, indices, gateways, rng=7)
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    return network, gateways, links, sparse.interference_model(radio)


MESH = _mesh()


class RecordingArrivals:
    """The generator as the loop sees it, noting what enters each link."""

    def __init__(self, inner, links):
        self.inner = inner
        self.link_of_head = {int(h): k for k, h in enumerate(links.heads)}
        self.injected = np.zeros(links.n_links, dtype=np.int64)
        self.last = 0

    def arrivals(self, epoch, n_slots):
        node_arrivals = self.inner.arrivals(epoch, n_slots)
        for node in np.flatnonzero(node_arrivals):
            self.injected[self.link_of_head[int(node)]] += node_arrivals[node]
        self.last = int(node_arrivals.sum())
        return node_arrivals


@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    rate=st.floats(min_value=0.002, max_value=0.05),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_every_epoch_conserves_packets_per_link(configuration, rate, seed):
    engine, policy, backend, n_shards = configuration
    network, gateways, links, sparse_model = MESH
    model = network.model if backend == "dense" else sparse_model
    generator = RecordingArrivals(
        PoissonArrivals(network.n_nodes, rate, gateways=gateways, seed=seed), links
    )
    # Links into a gateway deliver; every other link relays to the link its
    # tail heads.  Children of k: the links whose tail is k's head.
    delivers = ~np.isin(links.tails, links.heads)
    children = [np.flatnonzero(links.tails == head) for head in links.heads]
    totals = {"arrivals": 0, "delivered": 0, "epochs": 0}

    def on_epoch(record, queues):
        totals["epochs"] += 1
        totals["arrivals"] += record.arrivals
        totals["delivered"] += record.delivered
        served = queues.served_by_link
        assert record.arrivals == generator.last
        assert totals["arrivals"] == totals["delivered"] + record.backlog_end
        assert record.backlog_end == int(queues.backlog.sum())
        inflow = generator.injected + np.array([served[c].sum() for c in children])
        np.testing.assert_array_equal(inflow, served + queues.backlog)
        assert totals["delivered"] == int(served[delivers].sum())

    config = EpochConfig(epoch_slots=60, n_epochs=4, reschedule_policy=policy)
    if engine == "monolithic":
        trace = run_epochs(
            links, generator, centralized_scheduler(model), config,
            model=model, on_epoch=on_epoch,
        )
    else:
        plan = plan_for_network(links, network, n_shards=n_shards,
                                interference_radius_m=80.0)
        trace = run_epochs_sharded(
            plan, generator, sharded_centralized_factory(), model, config,
            on_epoch=on_epoch,
        )
    assert totals["epochs"] == trace.n_epochs_run == config.n_epochs
    assert totals["delivered"] == trace.delivered_total
