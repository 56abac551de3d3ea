"""The closed-loop harness E7-E12 share (``repro.experiments.common``).

One grid-mesh function, one arrival generator, one overhead-priced FDD adapter,
one sweep that keeps each point's seed-0 trace, and one verdict / knee
renderer: every traffic table is built through these, so their contracts
are pinned here once instead of per experiment.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.tables import TextTable
from repro.core.controlplane import MESSAGE_CLASSES
from repro.core.fdd import fdd_on_network
from repro.experiments.admission import admission_config
from repro.experiments.common import (
    PAPER_PROTOCOL,
    QUICK,
    SHARDED_SHARDS,
    TRAFFIC_DENSITY,
    add_knee_row,
    add_sweep_rows,
    epoch_config,
    grid_mesh,
    paper_fdd,
    poisson_arrivals,
    seconds_cell,
    sweep,
)
from repro.experiments.controlplane import VARIANTS
from repro.experiments.sharded import sharded_plan
from repro.topology.network import grid_network
from repro.traffic import (
    CONFIRM_SEEDS,
    EpochConfig,
    EpochRecord,
    PoissonArrivals,
    TrafficTrace,
    distributed_scheduler,
)
from repro.util.rng import spawn


def _trace(backlogs, arrivals_per_epoch=100):
    records = [
        EpochRecord(
            epoch=e,
            arrivals=arrivals_per_epoch,
            served=0,
            delivered=0,
            backlog_end=b,
            demand_scheduled=0,
            schedule_length=0,
            overhead_slots=0,
        )
        for e, b in enumerate(backlogs)
    ]
    return TrafficTrace(config=EpochConfig(), records=records)


STABLE = [5, 4, 5, 4, 5, 4]
BORDERLINE = [60, 66, 72, 78, 84, 90]  # reads unstable, barely
UNSTABLE = [100, 200, 300, 400, 500, 600]


@pytest.fixture(scope="module")
def mesh():
    return grid_mesh(QUICK, 4, 4, "traffic-forest")


class TestGridMesh:
    def test_planned_grid_with_four_gateways_and_zero_demand(self, mesh):
        network, gateways, links = mesh
        assert network.n_nodes == 16
        assert gateways.size == 4
        assert links.n_links == network.n_nodes - gateways.size
        assert not links.demand.any()

    def test_forest_is_reproducible_from_its_key(self, mesh):
        network, _, links = mesh
        again = grid_mesh(QUICK, 4, 4, "traffic-forest")[2]
        assert np.array_equal(again.heads, links.heads)
        assert np.array_equal(again.tails, links.tails)
        other = grid_mesh(QUICK, 4, 4, "sharded-forest", 4)[0]
        assert np.array_equal(other.positions, network.positions)

    def test_deployed_at_the_traffic_density(self, mesh):
        reference = grid_network(4, 4, density_per_km2=TRAFFIC_DENSITY)
        assert np.array_equal(mesh[0].positions, reference.positions)


class TestPoissonArrivals:
    def _draw(self, generator):
        return generator.arrivals(0, 200)

    def test_sample_path_zero_is_the_bare_key(self, mesh):
        network, gateways, _ = mesh
        ours = poisson_arrivals(QUICK, network, gateways, 0.02)
        theirs = PoissonArrivals(
            network.n_nodes,
            0.02,
            gateways=gateways,
            seed=spawn(QUICK.seed, "traffic-gen"),
        )
        assert np.array_equal(self._draw(ours), self._draw(theirs))

    def test_higher_indices_append_the_index(self, mesh):
        network, gateways, _ = mesh
        ours = poisson_arrivals(
            QUICK, network, gateways, 0.02, seed_index=2, key=("sharded-gen", 4)
        )
        theirs = PoissonArrivals(
            network.n_nodes,
            0.02,
            gateways=gateways,
            seed=spawn(QUICK.seed, "sharded-gen", 4, 2),
        )
        assert np.array_equal(self._draw(ours), self._draw(theirs))

    def test_seed_indices_are_independent_paths(self, mesh):
        network, gateways, _ = mesh
        draws = [
            self._draw(poisson_arrivals(QUICK, network, gateways, 0.05, k))
            for k in range(CONFIRM_SEEDS)
        ]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])


def test_paper_fdd_is_the_seeded_distributed_adapter(mesh):
    network, _, links = mesh
    demand = replace(links, demand=np.ones(links.n_links, dtype=np.int64))
    ours = paper_fdd(QUICK, network)(demand, 3)
    theirs = distributed_scheduler(
        network,
        fdd_on_network,
        config=PAPER_PROTOCOL,
        seed=spawn(QUICK.seed, "traffic-fdd"),
    )(demand, 3)
    slots = [[s.links for s in p.schedule.slots] for p in (ours, theirs)]
    assert slots[0] == slots[1]
    assert ours.overhead_seconds == theirs.overhead_seconds > 0


class TestEpochConfig:
    def test_profile_slots_and_the_four_x_guard(self):
        config = epoch_config(QUICK, 7)
        assert config.epoch_slots == QUICK.traffic_epoch_slots
        assert config.n_epochs == 7
        assert config.divergence_factor == 4.0
        assert config.reschedule_policy == "always"

    def test_fields_override_the_guard_and_add_fields(self):
        config = admission_config(QUICK)
        assert config.divergence_factor == 8.0
        assert config.demand_cap == max(1, QUICK.traffic_epoch_slots // 10)
        assert config.n_epochs == QUICK.admission_epochs
        patched = epoch_config(QUICK, 3, reschedule_policy="patch")
        assert patched.reschedule_policy == "patch"


class TestSweep:
    def test_each_point_keeps_its_seed_zero_trace(self):
        made = {}

        def run_at(rate, seed_index):
            backlogs = BORDERLINE if rate == 0.02 and seed_index == 0 else STABLE
            made[(rate, seed_index)] = _trace(backlogs)
            return made[(rate, seed_index)]

        swept = sweep([0.02, 0.01], run_at)
        assert [point.offered_rate for point, _ in swept] == [0.01, 0.02]
        assert sorted(made) == [(0.01, 0), (0.02, 0), (0.02, 1), (0.02, 2)]
        for point, trace in swept:
            assert trace is made[(point.offered_rate, 0)]
        # The borderline base run was outvoted by its two confirmations.
        assert swept[1][0].stable and swept[1][0].confirm_seeds == CONFIRM_SEEDS

    def test_run_at_gets_the_seed_index_as_a_keyword_it_can_name(self):
        def run_at(rate):
            return _trace(STABLE)

        with pytest.raises(TypeError, match="seed_index"):
            sweep([0.01], run_at)


def _table(n_cells):
    return TextTable(["name", "lambda", *[f"c{i}" for i in range(n_cells)], "stable"])


class TestRenderers:
    def test_verdict_cells_and_the_knee(self):
        table = _table(1)
        swept = sweep(
            [0.01, 0.02, 0.03],
            lambda rate, seed_index: _trace(STABLE if rate == 0.01 else UNSTABLE),
        )
        knee = add_sweep_rows(table, ("FDD",), swept, lambda p, t: (t.n_epochs_run,))
        assert knee == 0.01
        rendered = table.render().splitlines()[2:]
        assert [line.split("|")[-1].strip() for line in rendered] == [
            "yes",
            "NO",
            "NO",
        ]
        assert [line.split("|")[1].strip() for line in rendered] == [
            "0.01",
            "0.02",
            "0.03",
        ]

    def test_majority_resolved_verdicts_name_their_seeds(self):
        table = _table(0)
        swept = sweep(
            [0.02],
            lambda rate, seed_index: _trace(STABLE if seed_index else BORDERLINE),
        )
        add_sweep_rows(table, ("GreedyPhysical",), swept, lambda p, t: ())
        assert table.render().splitlines()[-1].split("|")[-1].strip() == (
            f"yes ({CONFIRM_SEEDS}-seed)"
        )

    def test_knee_row_dashes_and_a_missing_knee(self):
        table = _table(3)
        add_knee_row(table, ("FDD",), 0.0145)
        add_knee_row(table, ("Serialized",), None)
        add_knee_row(table, ("x",), 0.5, cells=["a", "b", "c"])
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in table.render().splitlines()[2:]
        ]
        assert rows == [
            ["FDD", "knee", "-", "-", "-", "0.0145"],
            ["Serialized", "knee", "-", "-", "-", "-"],
            ["x", "knee", "a", "b", "c", "0.5"],
        ]

    def test_seconds_cell(self):
        assert seconds_cell(None) == "~"
        assert seconds_cell(1.234) == "1.23"


def test_controlplane_variants_are_free_then_priced():
    (free_label, free), (priced_label, priced) = VARIANTS
    assert (free_label, priced_label) == ("free", "priced")
    assert [free.price_of(cls) for cls in MESSAGE_CLASSES] == [0.0] * len(MESSAGE_CLASSES)
    assert all(priced.price_of(cls) > 0.0 for cls in MESSAGE_CLASSES)


def test_sharded_plan_uses_the_experiment_constants():
    network, _, links = grid_mesh(QUICK, 8, 8, "sharded-forest", 8)
    plan = sharded_plan(links, network)
    assert plan.n_shards == SHARDED_SHARDS
    assert plan.boundary_mask().any()
