"""Unit tests for the in-band control-plane accounting
(repro.core.controlplane): message pricing, ledger attribution, forest
depths, and the priced-overhead slot conversion."""

import numpy as np
import pytest

from repro.core.controlplane import (
    MESSAGE_CLASSES,
    ControlLedger,
    ControlPlaneModel,
    forest_depths,
)
from repro.core.timing import TimingModel
from repro.scheduling.links import LinkSet
from repro.traffic import (
    FlowConfig,
    FlowWorkload,
    StaticCap,
    run_epochs,
    serialized_scheduler,
)
from repro.traffic.epoch import (
    SLOT_SECONDS,
    EpochConfig,
    overhead_to_slots,
    priced_overhead_slots,
)


def chain_links(n=5):
    heads = np.arange(1, n)
    tails = np.arange(0, n - 1)
    return LinkSet(
        heads=heads, tails=tails, demand=np.zeros(n - 1, np.int64), ids=heads
    )


class TestControlPlaneModel:
    def test_default_is_free_and_charges_exactly_zero(self):
        model = ControlPlaneModel()
        for cls in MESSAGE_CLASSES:
            assert model.price_of(cls) == 0.0

    def test_zero_byte_class_is_free_even_in_a_priced_model(self):
        model = ControlPlaneModel(patch_bytes=8.0, report_bytes=0.0)
        assert model.price_of("patch") > 0.0
        assert model.price_of("report") == 0.0

    def test_price_matches_timing_message_step(self):
        timing = TimingModel()
        model = ControlPlaneModel(timing=timing, signal_bytes=6.0)
        assert model.price_of("signal") == pytest.approx(timing.message_s(6.0))

    def test_price_monotone_in_payload_bytes(self):
        small = ControlPlaneModel(patch_bytes=4.0)
        big = ControlPlaneModel(patch_bytes=64.0)
        assert 0.0 < small.price_of("patch") < big.price_of("patch")

    def test_scaled_scales_every_class(self):
        model = ControlPlaneModel.default_priced()
        doubled = model.scaled(2.0)
        for cls in MESSAGE_CLASSES:
            assert doubled.payload_bytes(cls) == pytest.approx(
                2.0 * model.payload_bytes(cls)
            )
        assert all(model.scaled(0.0).price_of(cls) == 0.0 for cls in MESSAGE_CLASSES)

    def test_unknown_class_and_negative_bytes_raise(self):
        with pytest.raises(ValueError, match="unknown message class"):
            ControlPlaneModel().price_of("gossip")
        with pytest.raises(ValueError):
            ControlPlaneModel(patch_bytes=-1.0)

    def test_message_s_requires_positive_payload(self):
        with pytest.raises(ValueError):
            TimingModel().message_s(0)


class TestControlLedger:
    def test_charges_accumulate_per_epoch_and_per_layer(self):
        ledger = ControlLedger(ControlPlaneModel.default_priced())
        ledger.charge(0, "incremental", "patch", 10)
        ledger.charge(0, "admission", "signal", 4)
        ledger.charge(2, "sharded", "reconcile", 3)
        assert ledger.messages_for(0) == 14
        assert ledger.messages_for(1) == 0
        assert ledger.messages_for(2) == 3
        assert ledger.seconds_for(0) == pytest.approx(
            10 * ledger.model.price_of("patch") + 4 * ledger.model.price_of("signal")
        )
        assert ledger.messages() == 17
        assert ledger.messages(layer="admission") == 4
        assert ledger.messages(message_class="patch") == 10
        assert ledger.messages(layer="sharded") == 3
        assert ledger.seconds(layer="sharded") == pytest.approx(
            3 * ledger.model.price_of("reconcile")
        )
        assert ledger.seconds() == pytest.approx(
            sum(ledger.seconds_for(epoch) for epoch in range(3))
        )

    def test_free_model_counts_messages_but_charges_nothing(self):
        ledger = ControlLedger(ControlPlaneModel())
        ledger.charge(0, "admission", "report", 100)
        assert ledger.messages_for(0) == 100
        assert ledger.seconds_for(0) == 0.0
        assert ledger.seconds() == 0.0

    def test_zero_count_books_nothing(self):
        ledger = ControlLedger(ControlPlaneModel.default_priced())
        assert ledger.charge(0, "sharded", "report", 0) == 0.0
        assert ledger.messages() == 0
        assert ledger.seconds() == 0.0

    def test_invalid_charges_raise(self):
        ledger = ControlLedger(ControlPlaneModel())
        with pytest.raises(ValueError, match="non-negative"):
            ledger.charge(0, "admission", "signal", -1)
        with pytest.raises(ValueError, match="layer"):
            ledger.charge(0, "", "signal", 1)
        with pytest.raises(ValueError, match="unknown message class"):
            ledger.charge(0, "admission", "carrier-pigeon", 1)


class TestForestDepths:
    def test_chain_depths_count_hops_to_the_gateway(self):
        # 4 -> 3 -> 2 -> 1 -> 0: link k heads node k+1, depth = k+1 hops.
        np.testing.assert_array_equal(forest_depths(chain_links(5)), [1, 2, 3, 4])

    def test_star_depths_are_all_one(self):
        heads = np.array([1, 2, 3])
        tails = np.array([0, 0, 0])
        links = LinkSet(
            heads=heads, tails=tails, demand=np.zeros(3, np.int64), ids=heads
        )
        np.testing.assert_array_equal(forest_depths(links), [1, 1, 1])


class TestBindingLifecycle:
    """A ledger binding lives exactly one run: reset() unbinds, and the
    engines rebind (or unbind) from their own control= model, so reused
    workloads/caches never charge a previous run's ledger."""

    def _workload(self):
        return FlowWorkload(
            chain_links(6),
            FlowConfig(session_rate=3.0),
            controller=StaticCap(cap=0.01),  # blocks almost everything
            seed=5,
        )

    def test_workload_reset_unbinds_the_ledger(self):
        wl = self._workload()
        ledger = ControlLedger(ControlPlaneModel.default_priced())
        wl.bind_control(ledger)
        wl.arrivals(0, 100)
        booked = ledger.messages()
        assert booked > 0
        wl.reset()
        wl.arrivals(0, 100)  # the rewound run must book nothing
        assert ledger.messages() == booked

    def test_unpriced_engine_run_unbinds_a_stale_workload_binding(self):
        links = chain_links(6)
        wl = self._workload()
        stale = ControlLedger(ControlPlaneModel.default_priced())
        wl.bind_control(stale)
        run_epochs(
            links,
            wl,
            serialized_scheduler(),
            EpochConfig(epoch_slots=50, n_epochs=3),
        )
        assert stale.messages() == 0

    def test_priced_run_totals_survive_a_later_unpriced_rerun(self):
        links = chain_links(6)
        wl = self._workload()
        config = EpochConfig(epoch_slots=50, n_epochs=3)
        priced = run_epochs(
            links,
            wl,
            serialized_scheduler(),
            config,
            control=ControlPlaneModel.default_priced(),
        )
        before = (priced.ledger.messages(), priced.ledger.seconds())
        assert before[0] > 0
        wl.reset()
        rerun = run_epochs(links, wl, serialized_scheduler(), config)
        assert rerun.ledger is None
        assert (
            priced.ledger.messages(),
            priced.ledger.seconds(),
        ) == before


class TestPricedOverheadSlots:
    def test_no_ledger_matches_the_unpriced_conversion(self):
        cfg = EpochConfig(epoch_slots=100)
        assert priced_overhead_slots(0.5, None, 0, cfg) == (
            overhead_to_slots(0.5, cfg),
            0,
        )

    def test_zero_priced_ledger_is_bit_identical(self):
        cfg = EpochConfig(epoch_slots=100)
        ledger = ControlLedger(ControlPlaneModel())
        ledger.charge(0, "admission", "signal", 10_000)
        assert priced_overhead_slots(0.5, ledger, 0, cfg) == (
            overhead_to_slots(0.5, cfg),
            0,
        )

    def test_priced_charges_ride_the_overhead_and_attribute_the_increment(self):
        cfg = EpochConfig(epoch_slots=100)
        model = ControlPlaneModel.default_priced()
        ledger = ControlLedger(model)
        # Enough messages for ~2.1 slots of control air on top of 0.5 s base.
        count = int(np.ceil(2.1 * SLOT_SECONDS / model.price_of("report")))
        ledger.charge(3, "admission", "report", count)
        total, control = priced_overhead_slots(0.5, ledger, 3, cfg)
        base = overhead_to_slots(0.5, cfg)
        assert total == overhead_to_slots(0.5 + ledger.seconds_for(3), cfg)
        assert control == total - base > 0
        # Other epochs are untouched.
        assert priced_overhead_slots(0.5, ledger, 4, cfg) == (base, 0)

    def test_clamped_at_the_epoch_even_under_huge_control_charges(self):
        cfg = EpochConfig(epoch_slots=50)
        ledger = ControlLedger(ControlPlaneModel.default_priced())
        ledger.charge(0, "admission", "report", 10_000_000)
        total, control = priced_overhead_slots(1.0, ledger, 0, cfg)
        assert total == 50
        assert control == 50 - overhead_to_slots(1.0, cfg)
