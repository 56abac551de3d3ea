"""Timing model: step pricing, skew guards, repricing."""

import pytest

from repro.core.events import StepTally
from repro.core.timing import TimingModel, reprice_scream_slots


def make_tally() -> StepTally:
    tally = StepTally()
    for _ in range(10):
        tally.add_scream(5)
    for _ in range(4):
        tally.add_handshake()
    tally.add_sync(6)
    return tally


class TestTimingModel:
    def test_scream_slot_duration_components(self):
        t = TimingModel(
            bitrate_bps=1e6,
            slot_overhead_s=2e-6,
            scream_bytes=10,
            skew_bound_s=3e-6,
            guard_factor=2.0,
        )
        assert t.scream_slot_s == pytest.approx(2e-6 + 80e-6 + 6e-6)

    def test_execution_time_linear_in_scream_bytes(self):
        tally = make_tally()
        t10 = TimingModel(scream_bytes=10).execution_time(tally)
        t20 = TimingModel(scream_bytes=20).execution_time(tally)
        t30 = TimingModel(scream_bytes=30).execution_time(tally)
        assert t30 - t20 == pytest.approx(t20 - t10)
        assert t20 > t10

    def test_execution_time_affine_in_skew(self):
        tally = make_tally()
        base = TimingModel(skew_bound_s=0.0).execution_time(tally)
        t1 = TimingModel(skew_bound_s=1e-4).execution_time(tally)
        t2 = TimingModel(skew_bound_s=2e-4).execution_time(tally)
        assert t2 - t1 == pytest.approx(t1 - base)
        # Slope equals guard_factor * total steps.
        assert (t1 - base) == pytest.approx(2.0 * tally.total_steps * 1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(bitrate_bps=0.0)
        with pytest.raises(ValueError):
            TimingModel(scream_bytes=0)


class TestReprice:
    def test_reprice_scales_scream_slots_only(self):
        tally = make_tally()
        repriced = reprice_scream_slots(tally, old_k=5, new_k=20)
        assert repriced.scream_slots == tally.scream_calls * 20
        assert repriced.data_subslots == tally.data_subslots
        assert repriced.syncs == tally.syncs
        # Original untouched.
        assert tally.scream_slots == 50

    def test_reprice_rejects_inconsistent_tally(self):
        tally = make_tally()
        tally.scream_slots += 1
        with pytest.raises(ValueError, match="multiple"):
            reprice_scream_slots(tally, old_k=5, new_k=10)

    def test_reprice_rejects_bad_k(self):
        with pytest.raises(ValueError):
            reprice_scream_slots(StepTally(), old_k=0, new_k=5)
