"""Scheduling arbitrary link sets with the distributed protocols.

The paper notes that "up to straightforward modifications, the protocols
presented in this paper can be used to schedule an arbitrary link set (not
necessarily a forest)".  The modification implemented here: the one-to-one
node/edge mapping becomes one-to-one *per wave*.  Each node owns the links
it heads, ordered by decreasing link ID; in every wave it contends on behalf
of its highest-ID pending link (its *current* link), using that link's ID
for leader election.  When every current link's demand is met the protocol's
own termination detection fires, and the next wave starts with each node's
next pending link — no extra machinery beyond re-running the forest
protocol.

Properties:

* the produced schedule is feasible and satisfies every link's demand
  (asserted by tests through the independent verifier);
* within a wave, FDD still realizes the centralized greedy order over the
  wave's links (Theorem 4 applies wave-locally);
* across waves the schedule can be longer than a global GreedyPhysical pass
  over all links (a node's later links cannot borrow slots from an earlier
  wave) — this is the price of keeping the node state machine unchanged,
  and the ``waves`` diagnostics expose it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.events import StepTally
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.core.protocol import ProtocolResult
from repro.scheduling.links import LinkSet
from repro.scheduling.schedule import Schedule, Slot
from repro.topology.network import Network
from repro.util.rng import ensure_rng, spawn


@dataclass
class ArbitraryResult:
    """Outcome of scheduling an arbitrary link set in waves."""

    schedule: Schedule
    tally: StepTally
    waves: list[ProtocolResult] = field(default_factory=list)


def _wave_link_set(
    links: LinkSet, remaining: np.ndarray
) -> tuple[LinkSet, list[int]]:
    """Each head's highest-ID link with remaining demand, plus the mapping
    from wave link index to global link index."""
    chosen: dict[int, int] = {}
    for k in np.argsort(-links.ids):
        k = int(k)
        if remaining[k] <= 0:
            continue
        head = int(links.heads[k])
        if head not in chosen:
            chosen[head] = k
    wave_global = sorted(chosen.values())
    wave = LinkSet(
        heads=links.heads[wave_global],
        tails=links.tails[wave_global],
        demand=remaining[wave_global],
        ids=links.ids[wave_global],
    )
    return wave, wave_global


def run_arbitrary_link_set(
    network: Network,
    links: LinkSet,
    config: ProtocolConfig | None = None,
    protocol: str = "fdd",
    faults: FaultConfig = NO_FAULTS,
    rng: np.random.Generator | int | None = None,
) -> ArbitraryResult:
    """Schedule an arbitrary link set distributedly, in waves.

    Parameters
    ----------
    network:
        The deployed mesh.
    links:
        Any :class:`~repro.scheduling.links.LinkSet` — heads may repeat
        (several links per node); link IDs must be unique (enforced by the
        LinkSet itself).
    protocol:
        ``"fdd"`` or ``"pdd"``.
    """
    if protocol not in ("fdd", "pdd"):
        raise ValueError(f"protocol must be 'fdd' or 'pdd', got {protocol!r}")
    cfg = config or ProtocolConfig()
    root = ensure_rng(rng)

    max_id = int(links.ids.max()) if links.n_links else 0
    id_bits = max(cfg.id_bits, max_id.bit_length())
    if id_bits != cfg.id_bits:
        from dataclasses import replace

        cfg = replace(cfg, id_bits=id_bits)

    remaining = links.demand.astype(np.int64).copy()
    combined = Schedule(link_set=links)
    total_tally = StepTally()
    waves: list[ProtocolResult] = []

    wave_idx = 0
    while (remaining > 0).any():
        wave_idx += 1
        if wave_idx > links.n_links + 1:
            raise RuntimeError("wave loop failed to make progress")
        wave, wave_global = _wave_link_set(links, remaining)

        # Per-wave runtime: a node contends with its current link's ID.
        node_ids = np.zeros(network.n_nodes, dtype=np.int64)
        node_ids[wave.heads] = wave.ids
        runtime = FastRuntime.for_network(
            network,
            cfg,
            faults=faults,
            rng=spawn(root, "runtime", wave_idx),
            ids=node_ids,
        )
        runner = run_fdd if protocol == "fdd" else run_pdd
        result = runner(
            wave, runtime, cfg, rng=spawn(root, "protocol", wave_idx)
        )
        waves.append(result)
        for name, count in vars(result.tally).items():
            setattr(total_tally, name, getattr(total_tally, name) + count)

        for slot in result.schedule.slots:
            members = [wave_global[w] for w in slot.links]
            for g in members:
                remaining[g] -= 1
            combined.slots.append(Slot(links=members))
        if not result.terminated:
            break  # degraded run hit its round cap; report what we have

    return ArbitraryResult(schedule=combined, tally=total_tally, waves=waves)
