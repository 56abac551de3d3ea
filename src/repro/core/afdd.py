"""AFDD — an *extension*, not part of the paper's specification.

Section VI of the paper mentions implementing "PDD, FDD and AFDD" but never
defines AFDD.  We do not invent the authors' design; this module provides a
clearly-marked extension with the most natural reading — an *Accelerated*
FDD that amortizes election cost: instead of a full ``id_bits``-round
election per construction step, nodes reuse the previous election's
elimination state so each subsequent step needs a single SCREAM "round-robin
pass" over remaining dormants.

Concretely, AFDD selects actives exactly like FDD (strictly decreasing
head-ID order — so Theorem 4's schedule equivalence still holds, which tests
assert), but books a reduced step cost: one full election for the first
active of a slot, then ``afdd_refresh_bits`` SCREAMs per subsequent active
(the bits that distinguish the next ID from the previous winner's, bounded
by ``id_bits`` and typically ~2 for dense ID spaces).

This gives FDD-quality schedules at an execution time between PDD and FDD.
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

#: SCREAM passes charged per follow-up selection (see module docstring).
AFDD_REFRESH_SCREAMS = 2


def afdd_select_active(
    dormant: np.ndarray, runtime: Runtime, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Full election for a round's first active, cheap refreshes after.

    The selection *outcome* is identical to FDD (max-ID dormant node); only
    the booked communication cost differs, because followers can continue
    the bitwise elimination from the previous winner's prefix instead of
    restarting it.
    """
    ids = getattr(runtime, "ids", None)
    if ids is None:
        yield from runtime.elect_each(dormant)
        return
    pool = dormant.copy()
    winners = runtime.leader_elect(pool)
    while True:
        activated = np.flatnonzero(winners)
        pool[activated] = False
        yield activated

        # Refresh pass: same winner as a full election, reduced cost.
        winners = np.zeros(pool.shape[0], dtype=bool)
        if pool.any():
            candidates = np.flatnonzero(pool)
            winners[candidates[np.argmax(ids[candidates])]] = True
        for _ in range(AFDD_REFRESH_SCREAMS):
            runtime.scream(winners)


def run_afdd(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    rng: np.random.Generator | int | None = None,
    record_rounds: bool = False,
) -> ProtocolResult:
    """Run the AFDD extension on an arbitrary runtime substrate.

    The produced schedule equals FDD's; the step tally is smaller.  In
    closed form where FDD's is (:func:`~repro.core.protocol.run_by_theorem4`).
    """
    result = run_by_theorem4(
        links,
        runtime,
        config,
        record_rounds=record_rounds,
        refresh_screams=AFDD_REFRESH_SCREAMS,
    )
    if result is not None:
        return result
    return run_protocol(
        links, runtime, config, afdd_select_active, rng=rng, record_rounds=record_rounds
    )


def afdd_on_network(
    network: Network,
    links: LinkSet,
    config: ProtocolConfig | None = None,
    faults: FaultConfig = NO_FAULTS,
    rng: np.random.Generator | int | None = None,
    record_rounds: bool = False,
    model: PhysicalInterferenceModel | None = None,
) -> ProtocolResult:
    """Convenience wrapper: run AFDD over a fresh FastRuntime on ``network``.

    See :func:`~repro.core.protocol.run_on_network` for the shared
    semantics, including the optional feasibility-oracle ``model`` override.
    """
    return run_on_network(
        network,
        links,
        run_afdd,
        config=config,
        faults=faults,
        rng=rng,
        record_rounds=record_rounds,
        model=model,
    )
