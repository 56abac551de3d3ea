"""Packet-level substrate: medium resolution, engine lock-step, programs."""

import numpy as np
import pytest

from repro.simulation.clock import ClockModel
from repro.simulation.engine import SyncEngine
from repro.simulation.medium import Medium, Transmission
from repro.simulation.programs import leader_elect_program, scream_program


@pytest.fixture(scope="module")
def medium(grid16):
    return Medium(grid16.model)


class TestMedium:
    def test_empty_slot(self, medium):
        outcomes = medium.resolve([])
        assert len(outcomes) == 16
        assert not any(o.sensed for o in outcomes)

    def test_carrier_sense_near_transmitter(self, medium, grid16):
        outcomes = medium.resolve([Transmission(sender=5)])
        sensed = np.array([o.sensed for o in outcomes])
        expected = grid16.model.sense_mask(np.array([5]))
        assert np.array_equal(sensed, expected)

    def test_unicast_decode(self, medium, grid16):
        if grid16.comm_adj[0, 1]:
            outcomes = medium.resolve([Transmission(sender=0, dest=1, payload="x")])
            assert any(t.payload == "x" for t in outcomes[1].received)

    def test_transmitter_cannot_receive(self, medium):
        outcomes = medium.resolve(
            [
                Transmission(sender=0, dest=1, payload="a"),
                Transmission(sender=1, dest=0, payload="b"),
            ]
        )
        assert not outcomes[0].received
        assert not outcomes[1].received

    def test_double_transmission_rejected(self, medium):
        with pytest.raises(ValueError):
            medium.resolve([Transmission(sender=0), Transmission(sender=0)])

    def test_cs_miss_probability_one_blinds_listeners(self, grid16):
        medium = Medium(
            grid16.model, rng=np.random.default_rng(0), cs_miss_prob=1.0
        )
        outcomes = medium.resolve([Transmission(sender=5)])
        # Only the transmitter itself "senses".
        assert [i for i, o in enumerate(outcomes) if o.sensed] == [5]


class TestEngine:
    def test_scream_program_or_over_network(self, grid16):
        engine = SyncEngine(Medium(grid16.model))
        k = int(grid16.interference_diameter()) + 1
        programs = [scream_program(i, i == 3, k) for i in range(16)]
        results = engine.run(programs)
        assert all(results)
        assert engine.slots_elapsed == k

    def test_scream_program_silent_network(self, grid16):
        engine = SyncEngine(Medium(grid16.model))
        programs = [scream_program(i, False, 4) for i in range(16)]
        assert not any(engine.run(programs))

    def test_leader_elect_program_max_id(self, grid16):
        engine = SyncEngine(Medium(grid16.model))
        ids = np.arange(16)
        programs = [
            leader_elect_program(i, int(ids[i]), True, 4, 3) for i in range(16)
        ]
        winners = engine.run(programs)
        assert [i for i, w in enumerate(winners) if w] == [15]

    def test_program_count_must_match(self, grid16):
        engine = SyncEngine(Medium(grid16.model))
        with pytest.raises(ValueError):
            engine.run([scream_program(0, False, 1)])

    def test_desynchronized_programs_detected(self, grid16):
        def short(i):
            yield None
            return True

        def long(i):
            yield None
            yield None
            return True

        engine = SyncEngine(Medium(grid16.model))
        programs = [short(0)] + [long(i) for i in range(1, 16)]
        with pytest.raises(RuntimeError, match="desynchronized"):
            engine.run(programs)


class TestClockModel:
    def test_offsets_within_bound(self):
        clock = ClockModel(100, 1e-4, np.random.default_rng(1))
        assert (np.abs(clock.offsets) <= 1e-4).all()

    def test_zero_skew_all_aligned(self):
        clock = ClockModel(10, 0.0, np.random.default_rng(1))
        assert (clock.offsets == 0).all()
        assert clock.overlap_fraction(0, 1, 1e-3, 0.0) == 1.0

    def test_overlap_degrades_with_misalignment(self):
        clock = ClockModel(2, 1e-3, np.random.default_rng(3))
        clock.offsets[:] = [0.0, 1e-3]
        full = clock.overlap_fraction(0, 1, burst_s=1e-2, guard_s=2e-3)
        partial = clock.overlap_fraction(0, 1, burst_s=1e-2, guard_s=0.0)
        none = clock.overlap_fraction(0, 1, burst_s=5e-4, guard_s=0.0)
        assert full == 1.0
        assert 0.0 < partial < 1.0
        assert none == 0.0


class TestMediumWithClockSkew:
    """Emergent uncompensated-skew behaviour at the packet level."""

    def test_aligned_clocks_change_nothing(self, grid16):
        aligned = ClockModel(16, 0.0, np.random.default_rng(0))
        plain = Medium(grid16.model)
        skewed = Medium(grid16.model, clock=aligned, guard_s=0.0, burst_s=1e-5)
        tx = [Transmission(sender=5)]
        a = [o.sensed for o in plain.resolve(tx)]
        b = [o.sensed for o in skewed.resolve(tx)]
        assert a == b

    def test_severe_skew_blinds_listeners(self, grid16):
        clock = ClockModel(16, 1.0, np.random.default_rng(1))  # huge offsets
        medium = Medium(grid16.model, clock=clock, guard_s=0.0, burst_s=1e-5)
        outcomes = medium.resolve([Transmission(sender=5)])
        sensed = [i for i, o in enumerate(outcomes) if o.sensed]
        assert sensed == [5]  # only the transmitter itself

    def test_adequate_guard_restores_detection(self, grid16):
        skew = 1e-4
        clock = ClockModel(16, skew, np.random.default_rng(2))
        plain = Medium(grid16.model)
        guarded = Medium(
            grid16.model, clock=clock, guard_s=2 * skew, burst_s=1e-5
        )
        tx = [Transmission(sender=5)]
        assert [o.sensed for o in plain.resolve(tx)] == [
            o.sensed for o in guarded.resolve(tx)
        ]

    def test_clock_requires_burst_duration(self, grid16):
        clock = ClockModel(16, 1e-4, np.random.default_rng(3))
        with pytest.raises(ValueError, match="burst_s"):
            Medium(grid16.model, clock=clock)

    def test_scream_flood_truncates_under_skew(self, grid16):
        """Engine-level effect: a flood that saturates with aligned clocks
        stalls when offsets exceed the guard."""
        k = int(grid16.interference_diameter()) + 1
        clock = ClockModel(16, 0.5, np.random.default_rng(4))
        medium = Medium(grid16.model, clock=clock, guard_s=1e-6, burst_s=1e-5)
        engine = SyncEngine(medium)
        programs = [scream_program(i, i == 0, k) for i in range(16)]
        results = engine.run(programs)
        assert sum(results) < 16
