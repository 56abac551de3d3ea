"""SINR computation: interference accounting, half-duplex, carrier sense."""

import numpy as np
import pytest

from repro.phy.gain import received_power_matrix
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.sinr import carrier_sense_power, sinr_for_links

NOISE = 1e-9


@pytest.fixture(scope="module")
def line_power():
    """Four nodes on a line, 50 m apart, 12 dBm each."""
    positions = np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0], [150.0, 0.0]])
    tx = np.full(4, 10 ** (12.0 / 10.0))
    return received_power_matrix(positions, tx, LogDistancePathLoss(alpha=3.0))


def test_single_link_is_snr(line_power):
    sinr = sinr_for_links(line_power, np.array([0]), np.array([1]), NOISE)
    assert sinr[0] == pytest.approx(line_power[0, 1] / NOISE)


def test_interference_reduces_sinr(line_power):
    alone = sinr_for_links(line_power, np.array([0]), np.array([1]), NOISE)[0]
    both = sinr_for_links(
        line_power, np.array([0, 3]), np.array([1, 2]), NOISE
    )
    assert both[0] < alone
    # Interference term for link 0 is exactly P[3, 1].
    expected = line_power[0, 1] / (NOISE + line_power[3, 1])
    assert both[0] == pytest.approx(expected)


def test_empty_link_set(line_power):
    assert sinr_for_links(line_power, np.array([]), np.array([]), NOISE).size == 0


def test_half_duplex_receiver_gets_zero(line_power):
    # Node 1 transmits and is also the receiver of link 0 -> 1.
    sinr = sinr_for_links(
        line_power, np.array([0, 1]), np.array([1, 2]), NOISE
    )
    assert sinr[0] == 0.0
    assert sinr[1] > 0.0


def test_mismatched_arrays_rejected(line_power):
    with pytest.raises(ValueError):
        sinr_for_links(line_power, np.array([0, 1]), np.array([1]), NOISE)


def test_nonpositive_noise_rejected(line_power):
    with pytest.raises(ValueError):
        sinr_for_links(line_power, np.array([0]), np.array([1]), 0.0)


def test_carrier_sense_power_adds(line_power):
    one = carrier_sense_power(line_power, np.array([0]), 4)
    two = carrier_sense_power(line_power, np.array([0, 3]), 4)
    assert two[1] == pytest.approx(one[1] + line_power[3, 1])


def test_carrier_sense_power_empty(line_power):
    assert (carrier_sense_power(line_power, np.array([]), 4) == 0).all()
