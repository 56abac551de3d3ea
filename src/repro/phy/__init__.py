"""Physical-layer substrate: propagation, radio parameters, SINR feasibility.

This subpackage implements the physical interference model the paper builds
on (the two-sub-slot data + ACK variation of the model of Brar et al.,
MobiCom 2006) together with the radio propagation models needed to
instantiate it on concrete topologies.
"""

from repro.phy.units import dbm_to_mw
from repro.phy.propagation import PropagationModel, LogDistancePathLoss
from repro.phy.radio import RadioConfig, RateTable
from repro.phy.gain import received_power_matrix, gain_matrix
from repro.phy.sinr import sinr_for_links
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.spatial import GridIndex
from repro.phy.sparse import (
    SparsePowerMatrix,
    SparseGainModel,
    build_sparse_power,
    far_field_floor_mw,
    interference_radius_m,
    sparse_gain_model,
)

__all__ = [
    "dbm_to_mw",
    "PropagationModel",
    "LogDistancePathLoss",
    "RadioConfig",
    "RateTable",
    "received_power_matrix",
    "gain_matrix",
    "sinr_for_links",
    "PhysicalInterferenceModel",
    "GridIndex",
    "SparsePowerMatrix",
    "SparseGainModel",
    "build_sparse_power",
    "far_field_floor_mw",
    "interference_radius_m",
    "sparse_gain_model",
]
