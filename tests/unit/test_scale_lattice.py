"""E13 sweeps one mesh: every side holds the lattice step of side 100.

At fixed density ``grid_positions`` shrinks the step toward 31.62 m as the
side grows, and from side ~165 on the lattice diagonal falls inside the
floored communication range: the comm graph gains the diagonals, and the
large points would measure an 8-neighbour mesh against the small points'
4-neighbour one.
"""

import math

import pytest

from repro.experiments import scale
from repro.experiments.common import FULL, QUICK
from repro.phy.sparse import far_field_floor_mw, interference_radius_m, sparse_gain_model
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network

SIDES = sorted({*FULL.scale_grid_sides, *QUICK.scale_grid_sides, 316})


def _network(side):
    return grid_network(side, side, density_per_km2=scale.scale_density_per_km2(side))


def _floored_range(network):
    """Distance at which a link stops decoding alone over noise plus the
    sparse backend's far-field floor (uniform power: one law both ways)."""
    tx, law, radio = network.tx_power_mw, network.propagation, network.radio
    cutoff = interference_radius_m(tx, law, radio)
    floor = far_field_floor_mw(1, tx, law, cutoff, radio.alpha)[0]
    return law.range_for_snr(float(tx.max()), radio.noise_mw + floor, radio.beta)


def test_side_100_keeps_the_ledger_density():
    """``sparse_10k`` is side 100 at 1000 nodes/km^2: the same mesh."""
    assert scale.scale_density_per_km2(100) == scale.SCALE_DENSITY_PER_KM2
    assert scale.SCALE_LATTICE_STEP_M == pytest.approx(31.94, abs=5e-3)


@pytest.mark.parametrize("side", SIDES)
def test_diagonal_stays_outside_the_floored_range(side):
    network = _network(side)
    step = float(network.positions[1, 0] - network.positions[0, 0])
    assert step == pytest.approx(scale.SCALE_LATTICE_STEP_M, rel=1e-12)
    assert step <= _floored_range(network) < math.sqrt(2) * step


@pytest.mark.parametrize("side", QUICK.scale_grid_sides)
def test_sparse_comm_graph_is_the_four_neighbour_lattice(side):
    network = _network(side)
    sgm = sparse_gain_model(
        network.positions, network.tx_power_mw, network.propagation, network.radio
    )
    _, indices = communication_csr(
        sgm.power, network.radio.noise_mw, network.radio.beta, budget_mw=sgm.floor_mw
    )
    assert indices.size // 2 == 2 * side * (side - 1)  # no diagonal
