"""Mica2 mote substrate: RSSI synthesis, detection, experiment metrics."""

import numpy as np
import pytest

from repro.mote.cc1000 import CC1000, MoteLinkBudget
from repro.mote.experiment import (
    ScreamExperiment,
    miss_probability,
    monitor_rssi_trace,
    run_detection_error_sweep,
    run_experiment,
)
from repro.mote.rssi import (
    TransmissionInterval,
    moving_average,
    rssi_dbm,
    threshold_crossings,
)


class TestCC1000:
    def test_burst_duration(self):
        cc = CC1000()
        assert cc.burst_duration_s(24) == pytest.approx(24 * 8 / 19200)

    def test_invalid_smbytes(self):
        with pytest.raises(ValueError):
            CC1000().burst_duration_s(0)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="two hops"):
            MoteLinkBudget(initiator_at_monitor_dbm=-50.0)


class TestRssi:
    def test_noise_floor_without_bursts(self):
        times = np.linspace(0, 0.01, 10)
        readings = rssi_dbm(times, [], -95.0, 0.0, np.random.default_rng(0))
        assert readings == pytest.approx(np.full(10, -95.0))

    def test_burst_raises_level_during_interval(self):
        times = np.array([0.0005, 0.0015, 0.0035])
        burst = TransmissionInterval(0.001, 0.002, -50.0)
        readings = rssi_dbm(times, [burst], -95.0, 0.0, np.random.default_rng(0))
        assert readings[0] == pytest.approx(-95.0)
        assert readings[1] == pytest.approx(-50.0, abs=0.01)
        assert readings[2] == pytest.approx(-95.0)

    def test_concurrent_bursts_add_power(self):
        times = np.array([0.001])
        bursts = [
            TransmissionInterval(0.0, 0.01, -50.0),
            TransmissionInterval(0.0, 0.01, -50.0),
        ]
        readings = rssi_dbm(times, bursts, -95.0, 0.0, np.random.default_rng(0))
        assert readings[0] == pytest.approx(-47.0, abs=0.05)  # +3 dB

    def test_moving_average_window(self):
        values = np.array([0.0, 0.0, 6.0, 6.0, 6.0])
        out = moving_average(values, 3)
        assert out[-1] == pytest.approx(6.0)
        assert out[2] == pytest.approx(2.0)

    def test_moving_average_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 3.0])
        assert np.array_equal(moving_average(values, 1), values)

    def test_threshold_crossings_upward_only(self):
        times = np.arange(6.0)
        values = np.array([-90, -50, -50, -90, -50, -50.0])
        crossings = threshold_crossings(times, values, -60.0)
        assert crossings.tolist() == [1.0, 4.0]

    def test_initial_above_counts_as_crossing(self):
        times = np.arange(3.0)
        values = np.array([-50, -90, -90.0])
        assert threshold_crossings(times, values, -60.0).tolist() == [0.0]


class TestExperiment:
    def test_large_screams_detected_reliably(self):
        exp = ScreamExperiment(smbytes=24, n_screams=50)
        result = run_experiment(exp, rng=1)
        assert result.miss_rate == 0.0
        assert result.error_percent < 5.0

    def test_tiny_screams_mostly_missed(self):
        exp = ScreamExperiment(smbytes=5, n_screams=50)
        result = run_experiment(exp, rng=1)
        assert result.miss_rate > 0.8
        assert result.error_percent > 50.0

    def test_error_decreases_with_size(self):
        results = run_detection_error_sweep([6, 10, 20], n_screams=60, rng=5)
        errors = [r.error_percent for r in results]
        assert errors[0] >= errors[1] >= errors[2]

    def test_intervals_near_period_when_detected(self):
        exp = ScreamExperiment(smbytes=24, n_screams=30)
        result = run_experiment(exp, rng=2)
        assert np.allclose(result.intervals, 0.1, atol=0.005)

    def test_miss_probability_consistent_with_sweep(self):
        assert miss_probability(24, rng=3) == 0.0
        assert miss_probability(5, rng=3) > 0.8

    def test_experiment_reproducible(self):
        exp = ScreamExperiment(smbytes=10, n_screams=40)
        a = run_experiment(exp, rng=9)
        b = run_experiment(exp, rng=9)
        assert a.error_percent == b.error_percent
        assert np.array_equal(a.intervals, b.intervals)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScreamExperiment(smbytes=0)
        with pytest.raises((ValueError, TypeError)):
            ScreamExperiment(n_screams=1)


class TestTrace:
    def test_trace_shows_one_episode_per_round(self):
        times, values = monitor_rssi_trace(n_rounds=4, rng=11)
        above = values >= -60.0
        episodes = int((above[1:] & ~above[:-1]).sum() + int(above[0]))
        assert episodes == 4

    def test_trace_baseline_near_noise_floor(self):
        _, values = monitor_rssi_trace(n_rounds=2, rng=12)
        assert np.median(values[values < -80]) == pytest.approx(-95.0, abs=2.0)

    def test_trace_times_monotone(self):
        times, _ = monitor_rssi_trace(n_rounds=3, rng=13)
        assert (np.diff(times) > 0).all()
