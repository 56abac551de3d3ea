"""Radio configuration: thresholds, validation, power vectors."""

import numpy as np
import pytest

from repro.phy.radio import (
    RadioConfig,
    RateTable,
    TX_POWER_DBM,
    TX_POWER_RANGE_DBM,
    heterogeneous_tx_power,
    uniform_tx_power,
)
from repro.phy.units import dbm_to_mw


class TestRadioConfig:
    def test_decode_power_is_beta_times_noise(self):
        radio = RadioConfig(beta=10.0, noise_mw=1e-9)
        assert radio.decode_power_mw == pytest.approx(1e-8)

    def test_cs_threshold_below_decode_threshold(self):
        radio = RadioConfig(cs_gamma=3.0, alpha=3.0)
        assert radio.cs_threshold_mw == pytest.approx(
            radio.decode_power_mw / 27.0
        )

    def test_cs_gamma_one_equates_thresholds(self):
        radio = RadioConfig(cs_gamma=1.0)
        assert radio.cs_threshold_mw == pytest.approx(radio.decode_power_mw)

    def test_rejects_cs_gamma_below_one(self):
        with pytest.raises(ValueError):
            RadioConfig(cs_gamma=0.5)

    def test_rejects_beta_at_or_below_unity(self):
        with pytest.raises(ValueError):
            RadioConfig(beta=1.0)
        with pytest.raises(ValueError):
            RadioConfig(beta=0.5)


class TestPowerVectors:
    def test_uniform_power_value_and_shape(self):
        tx = uniform_tx_power(5)
        assert tx.shape == (5,)
        assert np.allclose(tx, dbm_to_mw(TX_POWER_DBM))

    def test_heterogeneous_power_within_range(self):
        rng = np.random.default_rng(3)
        tx = heterogeneous_tx_power(100, rng)
        low, high = TX_POWER_RANGE_DBM
        assert tx.shape == (100,)
        assert (tx >= dbm_to_mw(low) - 1e-12).all()
        assert (tx <= dbm_to_mw(high) + 1e-12).all()
        # Heterogeneous means actually varied.
        assert np.std(tx) > 0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            uniform_tx_power(0)
        with pytest.raises(ValueError):
            heterogeneous_tx_power(0, np.random.default_rng(0))

    def test_power_range_is_ordered_around_the_planned_power(self):
        low, high = TX_POWER_RANGE_DBM
        assert low < TX_POWER_DBM < high


class TestRateTableValidation:
    def test_degenerate_table(self):
        table = RateTable.degenerate(10.0)
        np.testing.assert_array_equal(table.thresholds, [10.0])
        np.testing.assert_array_equal(table.rates, [1])

    def test_geometric_defaults_calibrated_ladder(self):
        table = RateTable.geometric(10.0)
        np.testing.assert_allclose(table.thresholds, [10.0, 20.0, 40.0])
        np.testing.assert_array_equal(table.rates, [1, 2, 4])

    def test_thresholds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateTable(thresholds=np.array([10.0, 10.0]), rates=np.array([1, 2]))

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RateTable(thresholds=np.array([-1.0, 10.0]), rates=np.array([1, 2]))

    def test_rates_must_be_positive_and_monotone(self):
        with pytest.raises(ValueError, match="positive"):
            RateTable(thresholds=np.array([10.0]), rates=np.array([0]))
        with pytest.raises(ValueError, match="monotone"):
            RateTable(thresholds=np.array([10.0, 20.0]), rates=np.array([2, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            RateTable(thresholds=np.array([10.0, 20.0]), rates=np.array([1]))

    def test_sub_unity_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            RateTable(
                thresholds=np.array([10.0]), rates=np.array([1]), hysteresis=0.9
            )


class TestRateTableLookup:
    def make(self, hysteresis=1.0):
        return RateTable(
            thresholds=np.array([10.0, 20.0, 40.0]),
            rates=np.array([1, 2, 4]),
            hysteresis=hysteresis,
        )

    def test_tier_for_brackets(self):
        table = self.make()
        np.testing.assert_array_equal(
            table.tier_for(np.array([5.0, 10.0, 19.9, 20.0, 39.0, 40.0, 1e6])),
            [-1, 0, 0, 1, 1, 2, 2],
        )

    def test_rate_for_zero_below_base(self):
        table = self.make()
        np.testing.assert_array_equal(
            table.rate_for(np.array([5.0, 10.0, 25.0, 80.0])), [0, 1, 2, 4]
        )

    @pytest.mark.parametrize(
        "table",
        [
            RateTable.degenerate(10.0),
            RateTable.geometric(10.0),
            RateTable(thresholds=np.array([10.0, 30.0]), rates=np.array([2, 3])),
        ],
        ids=["degenerate", "geometric", "base-rate-2"],
    )
    def test_grant_is_rate_for_floored_at_base_rate(self, table):
        """Below, at and between every threshold, and far above the top."""
        edges = table.thresholds
        mids = np.sqrt(edges[:-1] * edges[1:])
        sinr = np.concatenate(([0.0, edges[0] / 2], edges, mids, [edges[-1] * 1e3]))
        expected = np.maximum(table.rate_for(sinr), table.rates[0])
        granted = table.grant(sinr)
        np.testing.assert_array_equal(granted, expected)
        assert granted.dtype == np.int64
        assert (granted[:2] == table.rates[0]).all()  # members never get 0

    def test_select_upgrade_needs_margin(self):
        table = self.make(hysteresis=1.25)
        sinr = np.array([21.0, 25.0, 25.0])
        prev = np.array([0, 0, 1])
        # 21 < 20*1.25: upgrade denied; 25 >= 25: granted; holding tier 1
        # at 25 stays (no upgrade attempted past raw).
        np.testing.assert_array_equal(table.select(sinr, prev), [0, 1, 1])

    def test_select_downgrades_immediately(self):
        table = self.make(hysteresis=1.25)
        sinr = np.array([15.0, 5.0])
        prev = np.array([1, 2])
        np.testing.assert_array_equal(table.select(sinr, prev), [0, -1])

    def test_select_shape_mismatch_rejected(self):
        table = self.make(hysteresis=1.25)
        with pytest.raises(ValueError, match="shape"):
            table.select(np.array([10.0, 20.0]), np.array([0]))
