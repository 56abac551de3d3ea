"""FDD — the Fully Deterministic Distributed Protocol (Section III-D).

FDD's ``SelectActive`` elects exactly one new active per step through a
network-wide leader election among DORMANT nodes, so links are tried
sequentially in decreasing head-ID order.  This makes the computed schedule
identical to the centralized GreedyPhysical schedule under the decreasing-ID
edge ordering (Theorem 4) — an equivalence our integration tests assert slot
by slot — at the cost of one full election per construction step.

The simulator takes the theorem at its word: on a saturated, fault-free
substrate :func:`run_fdd` packs the links once and derives the step tally
in closed form (:func:`~repro.core.protocol.run_by_theorem4`), booking the
same air time as the per-step run without executing its steps.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.protocol import (
    ProtocolResult,
    run_by_theorem4,
    run_on_network,
    run_protocol,
)
from repro.core.runtime import Runtime
from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.links import LinkSet
from repro.topology.network import Network


def fdd_select_active(
    dormant: np.ndarray, runtime: Runtime, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Elect a single new active among the DORMANT nodes, step after step.

    Every step runs a full leader election (id_bits SCREAMs) regardless of
    the dormant pool size — including when the pool is empty, which is how
    FDD nodes discover that the slot is saturated.
    """
    return runtime.elect_each(dormant)


def run_fdd(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    rng: np.random.Generator | int | None = None,
) -> ProtocolResult:
    """Run FDD on an arbitrary runtime substrate.

    In closed form (:func:`~repro.core.protocol.run_by_theorem4`) where the
    runtime and the links allow it, step by step everywhere else.
    """
    result = run_by_theorem4(links, runtime, config)
    if result is not None:
        return result
    return run_protocol(links, runtime, config, fdd_select_active, rng=rng)


def fdd_on_network(
    network: Network,
    links: LinkSet,
    config: ProtocolConfig | None = None,
    faults: FaultConfig = NO_FAULTS,
    rng: np.random.Generator | int | None = None,
    model: PhysicalInterferenceModel | None = None,
) -> ProtocolResult:
    """Convenience wrapper: run FDD over a fresh FastRuntime on ``network``.

    See :func:`~repro.core.protocol.run_on_network` for the shared
    semantics, including the optional feasibility-oracle ``model`` override.
    """
    return run_on_network(
        network,
        links,
        run_fdd,
        config=config,
        faults=faults,
        rng=rng,
        model=model,
    )
