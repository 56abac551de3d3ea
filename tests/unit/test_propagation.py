"""The log-distance propagation model (power law, reference loss, range),
the protocol the gain builders require, and the gain matrices built on it."""

import numpy as np
import pytest

from repro.phy.gain import distance_matrix, gain_matrix, received_power_matrix
from repro.phy.propagation import LogDistancePathLoss, PropagationModel


class TestLogDistance:
    def test_gain_follows_power_law(self):
        model = LogDistancePathLoss(alpha=3.0, reference_loss_db=40.0)
        g10 = model.gain(np.array(10.0))
        g20 = model.gain(np.array(20.0))
        assert g10 / g20 == pytest.approx(8.0)

    def test_gain_at_reference_distance(self):
        model = LogDistancePathLoss(alpha=3.0, reference_loss_db=40.0)
        assert model.gain(np.array(1.0)) == pytest.approx(1e-4)

    def test_gain_clamped_below_reference(self):
        model = LogDistancePathLoss(alpha=3.0)
        assert model.gain(np.array(0.0)) == model.gain(np.array(1.0))
        assert model.gain(np.array(0.5)) == model.gain(np.array(1.0))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss().gain(np.array([-1.0]))

    def test_range_for_snr_inverts_gain(self):
        model = LogDistancePathLoss(alpha=3.0)
        tx, noise, beta = 15.85, 1e-9, 10.0
        r = model.range_for_snr(tx, noise, beta)
        assert tx * model.gain(np.array(r)) / noise == pytest.approx(beta, rel=1e-9)

    def test_range_zero_when_budget_insufficient(self):
        model = LogDistancePathLoss(alpha=3.0, reference_loss_db=40.0)
        assert model.range_for_snr(1e-9, 1e-9, 10.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(alpha=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance=-1.0)

    def test_negative_reference_loss_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_loss_db=-1.0)

    @pytest.mark.parametrize("field", ["tx", "noise", "beta"])
    def test_range_for_snr_rejects_non_positive_inputs(self, field):
        args = {"tx": 15.85, "noise": 1e-9, "beta": 10.0}
        args[field] = 0.0
        with pytest.raises(ValueError):
            LogDistancePathLoss().range_for_snr(args["tx"], args["noise"], args["beta"])

    def test_documented_default_range(self):
        """15 dBm, alpha = 3, -90 dBm noise and a 10 dB threshold: ~68 m."""
        tx = 10 ** (15.0 / 10.0)
        noise = 10 ** (-90.0 / 10.0)
        assert LogDistancePathLoss().range_for_snr(tx, noise, 10.0) == pytest.approx(
            68.1, abs=0.1
        )

    def test_gain_is_non_increasing_and_capped_at_reference_gain(self):
        model = LogDistancePathLoss(alpha=3.5, reference_distance=2.0, reference_loss_db=37.0)
        d = np.linspace(0.0, 500.0, 2001)
        g = model.gain(d)
        assert (np.diff(g) <= 0).all()
        assert g.max() == 10 ** (-37.0 / 10.0)
        assert (g[d <= 2.0] == g.max()).all()

    def test_gain_keeps_input_shape(self):
        d = np.arange(12.0).reshape(3, 4) * 10.0
        assert LogDistancePathLoss().gain(d).shape == (3, 4)



class TestPropagationProtocol:
    def test_log_distance_satisfies_the_protocol(self):
        assert isinstance(LogDistancePathLoss(), PropagationModel)

    def test_a_gain_without_its_inverse_is_not_a_model(self):
        """The gain builders and the sparse cutoff both read the law: a
        model must give ``range_for_snr`` as well as ``gain``."""

        class GainOnly:
            def gain(self, distances):
                return np.ones_like(distances)

        assert not isinstance(GainOnly(), PropagationModel)


class TestGainMatrix:
    POSITIONS = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 40.0], [55.0, 70.0]])

    def test_entries_are_the_law_at_pairwise_distance(self):
        model = LogDistancePathLoss(alpha=3.0)
        g = gain_matrix(self.POSITIONS, model)
        np.testing.assert_array_equal(g, model.gain(distance_matrix(self.POSITIONS)))
        # A 3-4-5 triangle: 1e-4 * (1 / 50) ** 3 at 50 m.
        assert g[1, 2] == pytest.approx(8e-10, rel=1e-12)
        assert g[0, 1] == pytest.approx(1e-4 / 30.0**3, rel=1e-12)

    def test_symmetric_with_reference_gain_diagonal(self):
        model = LogDistancePathLoss(alpha=3.0, reference_loss_db=40.0)
        g = gain_matrix(self.POSITIONS, model)
        np.testing.assert_array_equal(g, g.T)
        assert (np.diag(g) == 1e-4).all()

    def test_received_power_scales_rows_by_transmit_power(self):
        model = LogDistancePathLoss(alpha=3.0)
        tx = np.array([1.0, 2.0, 5.0, 31.6])
        p = received_power_matrix(self.POSITIONS, tx, model)
        np.testing.assert_array_equal(p, gain_matrix(self.POSITIONS, model) * tx[:, None])

    def test_bad_position_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            gain_matrix(np.zeros((4, 3)), LogDistancePathLoss())
