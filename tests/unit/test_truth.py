"""Unit tests for the exact truth kernel, its round peel and its report,
and for how the epoch loop books the report."""

from functools import partial

import numpy as np
import pytest

from repro.experiments.scale import _truth_checked
from repro.obs import Obs, ObsConfig
from repro.obs.summarize import summarize_run
from repro.phy import truth
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.sparse import SparsePowerMatrix, sparse_gain_model
from repro.routing import planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.links import forest_link_set
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.traffic import EpochConfig, PoissonArrivals, centralized_scheduler, run_epochs
from tests.conftest import counter_value, exact_link_sinrs, metric

RADIO = RadioConfig()


def _line(xs, tx=15.8):
    """Nodes on a line; link k is node 2k -> node 2k+1."""
    positions = np.column_stack([np.asarray(xs, dtype=float), np.zeros(len(xs))])
    geometry = truth.Geometry(
        positions, np.full(len(xs), tx), LogDistancePathLoss(alpha=3.0)
    )
    members = np.arange(len(xs)).reshape(-1, 2)
    return geometry, members[:, 0], members[:, 1]


class TestLinkSinrs:
    def test_lone_link_sees_only_noise(self):
        geometry, snd, rcv = _line([0.0, 30.0])
        data, ack = exact_link_sinrs(geometry, snd, rcv, RADIO.noise_mw)
        gain = geometry.propagation.gain(np.asarray([30.0]))
        assert data == pytest.approx(15.8 * gain / RADIO.noise_mw)
        assert np.array_equal(data, ack)  # equal powers, reciprocal channel

    def test_relay_chain_is_deaf(self):
        # a -> b and b -> c share node b: b cannot receive while it sends.
        positions = np.asarray([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0]])
        geometry = truth.Geometry(positions, np.full(3, 15.8), LogDistancePathLoss())
        data, ack = exact_link_sinrs(
            geometry, np.asarray([0, 1]), np.asarray([1, 2]), RADIO.noise_mw
        )
        assert data[0] == 0.0  # b is sending link 1's data
        assert ack[1] == 0.0  # b is sending link 0's ACK

    def test_empty_slot(self):
        geometry, _, _ = _line([0.0, 30.0])
        none = np.empty(0, dtype=np.intp)
        data, ack = exact_link_sinrs(geometry, none, none, RADIO.noise_mw)
        assert data.size == ack.size == 0


def _peel(geometry, snd, rcv):
    """The round peel on a one-slot round: ``(kept, margin, found)``."""
    incidence = partial(truth.geometry_incidence, geometry, RADIO.noise_mw)
    verdict = truth.peel_round(incidence, snd, rcv, [snd.size], RADIO.beta)
    return np.flatnonzero(verdict.keep), verdict.margins, int(verdict.found[0])


class TestPeelSlot:
    def test_clean_slot_is_untouched(self):
        geometry, snd, rcv = _line([0.0, 20.0, 5000.0, 5020.0])
        kept, margin, found = _peel(geometry, snd, rcv)
        assert kept.tolist() == [0, 1] and found == 0
        assert (margin >= 1.0).all()

    def test_lowest_margin_goes_first(self):
        # Three links; the long middle one is the weakest and removing it
        # is enough for the short outer two.
        geometry, snd, rcv = _line([0.0, 10.0, 200.0, 250.0, 400.0, 410.0])
        as_packed = np.minimum(
            *exact_link_sinrs(geometry, snd, rcv, RADIO.noise_mw)
        ) / RADIO.beta
        assert as_packed.argmin() == 1 and as_packed[1] < 1.0
        kept, margin, found = _peel(geometry, snd, rcv)
        assert kept.tolist() == [0, 2]
        assert found == int((as_packed < 1.0).sum()) >= 1
        # The kept margins are a from-scratch evaluation of exactly the kept set.
        alone = exact_link_sinrs(geometry, snd[kept], rcv[kept], RADIO.noise_mw)
        assert np.array_equal(margin, np.minimum(*alone) / RADIO.beta)

    def test_ties_go_to_the_earliest_position(self):
        # Two mirror-image links facing each other: identical margins.
        geometry, snd, rcv = _line([0.0, 40.0, 90.0, 50.0])
        as_packed = np.minimum(*exact_link_sinrs(geometry, snd, rcv, RADIO.noise_mw))
        assert as_packed[0] == as_packed[1] < RADIO.beta
        kept, _, _ = _peel(geometry, snd, rcv)
        assert kept.tolist() == [1]

    def test_a_member_that_cannot_decode_alone_is_removed(self):
        geometry, snd, rcv = _line([0.0, 5000.0])  # cannot decode even alone
        kept, margin, found = _peel(geometry, snd, rcv)
        assert kept.size == margin.size == 0 and found == 1

    def test_a_lone_member_that_decodes_stays(self):
        geometry, snd, rcv = _line([0.0, 20.0, 30.0, 5000.0])
        kept, margin, found = _peel(geometry, snd, rcv)
        assert kept.tolist() == [0] and found == 2 and margin[0] >= 1.0

    def test_node_sharing_members_are_separated(self):
        positions = np.asarray([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0]])
        geometry = truth.Geometry(positions, np.full(3, 15.8), LogDistancePathLoss())
        kept, margin, found = _peel(geometry, np.asarray([0, 1]), np.asarray([1, 2]))
        assert kept.tolist() == [1] and found == 2 and margin[0] >= 1.0


class TestPeelRound:
    def test_slots_are_peeled_apart_in_one_pass(self):
        """A round of a clean slot, an empty one, a slot that loses its weak
        middle link and a lone link that cannot decode: each slot gets what
        peeling it alone gives, and ``elements`` counts ``k²`` per
        from-scratch evaluation (the failing 3-member slot is evaluated
        again with its 2 survivors; the lone link once)."""
        xs = [0.0, 20.0, 5000.0, 5020.0]  # clean pair
        xs += [10000.0, 10010.0, 10200.0, 10250.0, 10400.0, 10410.0]
        xs += [20000.0, 25000.0]  # cannot decode alone
        geometry, snd, rcv = _line(xs)
        ends = [2, 2, 5, 6]
        incidence = partial(truth.geometry_incidence, geometry, RADIO.noise_mw)
        verdict = truth.peel_round(incidence, snd, rcv, ends, RADIO.beta)
        assert verdict.keep.tolist() == [True, True, True, False, True, False]
        assert verdict.found[0] == verdict.found[1] == 0
        assert verdict.found[2] >= 1 and verdict.found[3] == 1
        assert verdict.elements == 2 * 2 + 3 * 3 + 2 * 2 + 1
        for lo, hi in ((0, 2), (2, 5)):
            kept, margin, found = _peel(geometry, snd[lo:hi], rcv[lo:hi])
            at = verdict.keep[:lo].sum()
            assert np.array_equal(verdict.margins[at : at + kept.size], margin)

    def test_empty_round(self):
        geometry, _, _ = _line([0.0, 30.0])
        none = np.empty(0, dtype=np.intp)
        incidence = partial(truth.geometry_incidence, geometry, RADIO.noise_mw)
        verdict = truth.peel_round(incidence, none, none, [], RADIO.beta)
        assert verdict.keep.size == verdict.margins.size == verdict.found.size == 0
        assert verdict.elements == 0


class TestTruthReport:
    def test_check_slots_counts_and_orders(self):
        geometry, snd, rcv = _line([0.0, 10.0, 200.0, 250.0, 400.0, 410.0])
        report = truth.check_slots(
            geometry,
            np.concatenate([snd, snd[:1]]),
            np.concatenate([rcv, rcv[:1]]),
            [3, 4],
            RADIO.noise_mw,
            RADIO.beta,
        )
        assert report.margins.size == 4
        assert report.violations == int((report.margins < 1.0).sum()) >= 1
        assert report.margins.min() < 1.0
        assert report.check_elements == 3 * 3 + 1
        assert report.repaired_tx == report.repair_rounds == 0

    def test_empty_report(self):
        geometry, _, _ = _line([0.0, 30.0])
        none = np.empty(0, dtype=np.intp)
        report = truth.check_slots(geometry, none, none, [], RADIO.noise_mw, RADIO.beta)
        assert report.violations == 0 and report.margins.size == 0
        assert report.check_elements == 0


class TestEpochLoopBooksTheReport:
    @pytest.fixture(scope="class")
    def sparse_mesh(self):
        side = 20
        net = grid_network(side, side, density_per_km2=1000.0)
        gateways = planned_gateways(side, side, 4)
        sgm = sparse_gain_model(
            net.positions, net.tx_power_mw, net.propagation, net.radio
        )
        indptr, indices = communication_csr(
            sgm.power, net.radio.noise_mw, net.radio.beta, budget_mw=sgm.floor_mw
        )
        forest = build_routing_forest_csr(indptr, indices, gateways, rng=3)
        links = forest_link_set(forest, np.zeros(net.n_nodes, dtype=np.int64))
        return net, gateways, links, sgm.interference_model(net.radio)

    def _run(self, sparse_mesh, obs):
        net, gateways, links, model = sparse_mesh
        generator = PoissonArrivals(net.n_nodes, 1.0 / 200, gateways=gateways, seed=5)
        config = EpochConfig(epoch_slots=200, n_epochs=2, demand_cap=1)
        return run_epochs(links, generator, centralized_scheduler(model), config, obs=obs)

    def test_counters_histogram_and_summary(self, sparse_mesh, tmp_path):
        obs = Obs.create(
            ObsConfig(level="spans", jsonl_path=str(tmp_path / "run.jsonl"))
        )
        trace = self._run(sparse_mesh, obs)
        labels = {"engine": "epoch", "phase": "epoch.schedule"}
        registry = obs.registry
        assert counter_value(registry, "truth.violations", **labels) > 0
        repaired = counter_value(registry, "truth.repaired_tx", **labels)
        assert 0 < repaired <= counter_value(registry, "truth.violations", **labels)
        assert counter_value(registry, "truth.repair_rounds", **labels) >= 2
        margins = metric(registry, "sinr.margin", **labels)
        assert margins["count"] == sum(r.demand_scheduled for r in trace.records)
        assert margins["min"] >= 1.0

        text = summarize_run(obs.export())
        assert "Exact-model truth" in text
        assert "truth.repaired_tx" in text and "sinr.margin" in text

    def test_booking_is_passive(self, sparse_mesh):
        base = self._run(sparse_mesh, None)
        observed = self._run(sparse_mesh, Obs.create(ObsConfig(level="metrics")))
        assert observed.records == base.records
        assert np.array_equal(observed.queues.backlog, base.queues.backlog)


class TestE13StrikesWhatDoesNotDecode:
    def test_unrepaired_schedule_is_struck_before_serving(self):
        """E13's re-check on a scheduler that does *not* repair (a
        recipe-free copy of the truncated matrix): violations are counted
        and the failing memberships never reach the serving stage."""
        net = grid_network(20, 20, density_per_km2=1000.0)
        sgm = sparse_gain_model(net.positions, net.tx_power_mw, net.propagation, net.radio)
        bare = SparsePowerMatrix(net.n_nodes, sgm.power.keys, sgm.power.entries()[2])
        model = PhysicalInterferenceModel(bare, net.radio, sgm.floor_mw)
        indptr, indices = communication_csr(
            bare, net.radio.noise_mw, net.radio.beta, budget_mw=sgm.floor_mw
        )
        forest = build_routing_forest_csr(indptr, indices, planned_gateways(20, 20, 4), rng=3)
        links = forest_link_set(forest, np.ones(net.n_nodes, dtype=np.int64))

        tally = {"violations": 0, "repaired": 0, "check_s": 0.0}
        planned = _truth_checked(centralized_scheduler(model), net, tally)(links, 0)
        assert tally["violations"] > 0 and tally["repaired"] == 0
        served = sum(len(slot) for slot in planned.schedule.slots)
        assert served == links.total_demand - tally["violations"]
        # Exactly the members the exact model fails were struck.
        unchecked = centralized_scheduler(model)(links, 0).schedule
        for struck, packed in zip(planned.schedule.slots, unchecked.slots):
            snd, rcv = unchecked.link_set.heads, unchecked.link_set.tails
            members = packed.as_array()
            data, ack = exact_link_sinrs(
                truth.Geometry(net.positions, net.tx_power_mw, net.propagation),
                snd[members], rcv[members], net.radio.noise_mw,
            )
            decodes = np.minimum(data, ack) >= net.radio.beta
            assert struck.links == members[decodes].tolist()
