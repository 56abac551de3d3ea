"""The paper's contribution: SCREAM, leader election, and the PDD/FDD schedulers.

Public surface:

* :func:`~repro.core.scream.scream_flood` — the K-slot carrier-sensing flood
  that realizes a network-wide OR;
* :func:`~repro.core.leader.leader_elect` — bitwise leader election over
  SCREAM;
* :class:`~repro.core.fast_runtime.FastRuntime` — the vectorized
  slot-faithful execution substrate;
* :func:`~repro.core.pdd.run_pdd` / :func:`~repro.core.fdd.run_fdd` — the two
  distributed protocols;
* :class:`~repro.core.timing.TimingModel` — maps step tallies to wall-clock
  seconds for the execution-time experiments.
"""

from repro.core.states import NodeState
from repro.core.events import StepTally
from repro.core.config import ProtocolConfig, FaultConfig
from repro.core.scream import scream_flood
from repro.core.leader import leader_elect
from repro.core.runtime import Runtime
from repro.core.fast_runtime import FastRuntime
from repro.core.protocol import ProtocolResult, run_protocol
from repro.core.pdd import run_pdd
from repro.core.fdd import run_fdd
from repro.core.afdd import run_afdd
from repro.core.timing import TimingModel
from repro.core.controlplane import (
    CONTROL_LAYERS,
    MESSAGE_CLASSES,
    ControlLedger,
    ControlPlaneModel,
    forest_depths,
)
from repro.core.arbitrary import ArbitraryResult, run_arbitrary_link_set
from repro.core.skew import (
    SkewDegradation,
    critical_skew_estimate,
    degrade_sensitivity_graph,
)

__all__ = [
    "NodeState",
    "StepTally",
    "ProtocolConfig",
    "FaultConfig",
    "scream_flood",
    "leader_elect",
    "Runtime",
    "FastRuntime",
    "ProtocolResult",
    "run_protocol",
    "run_pdd",
    "run_fdd",
    "run_afdd",
    "TimingModel",
    "CONTROL_LAYERS",
    "MESSAGE_CLASSES",
    "ControlLedger",
    "ControlPlaneModel",
    "forest_depths",
    "ArbitraryResult",
    "run_arbitrary_link_set",
    "SkewDegradation",
    "critical_skew_estimate",
    "degrade_sensitivity_graph",
]
