"""PDD — the Partially Randomized Distributed Protocol (Section III-C).

PDD's ``SelectActive`` is a local coin flip: every DORMANT node turns ACTIVE
with probability ``p`` in each slot-construction step.  No communication is
needed to select actives, which is why PDD runs substantially faster than
FDD; the price is that concurrent actives can knock each other (and nothing
retries within the round), costing some schedule quality.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.protocol import ProtocolResult, run_on_network, run_protocol
from repro.core.runtime import Runtime
from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.links import LinkSet
from repro.topology.network import Network


def make_pdd_select_active(p_active: float):
    """Build PDD's probabilistic SelectActive strategy."""

    def select_active(
        dormant: np.ndarray, runtime: Runtime, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        pool = dormant.copy()
        while True:
            coins = rng.random(pool.shape[0]) < p_active
            activated = np.flatnonzero(pool & coins)
            pool[activated] = False
            yield activated

    return select_active


def run_pdd(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    rng: np.random.Generator | int | None = None,
    record_rounds: bool = False,
) -> ProtocolResult:
    """Run PDD on an arbitrary runtime substrate."""
    if config.p_active <= 0.0:
        raise ValueError(
            "PDD requires p_active > 0 (dormant nodes could otherwise "
            "never be selected)"
        )
    return run_protocol(
        links,
        runtime,
        config,
        make_pdd_select_active(config.p_active),
        rng=rng,
        record_rounds=record_rounds,
    )


def pdd_on_network(
    network: Network,
    links: LinkSet,
    config: ProtocolConfig | None = None,
    faults: FaultConfig = NO_FAULTS,
    rng: np.random.Generator | int | None = None,
    record_rounds: bool = False,
    model: PhysicalInterferenceModel | None = None,
) -> ProtocolResult:
    """Convenience wrapper: run PDD over a fresh FastRuntime on ``network``.

    See :func:`~repro.core.protocol.run_on_network` for the shared
    semantics, including the optional feasibility-oracle ``model`` override.
    """
    return run_on_network(
        network,
        links,
        run_pdd,
        config=config,
        faults=faults,
        rng=rng,
        record_rounds=record_rounds,
        model=model,
    )
