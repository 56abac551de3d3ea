"""PacketRuntime: protocol primitives executed by per-node programs.

Implements the :class:`~repro.core.runtime.Runtime` interface by running the
generator programs of :mod:`repro.simulation.programs` on the lock-step
engine for every primitive invocation.  Nothing is computed globally: OR
results emerge from carrier-sensing floods, election winners from bitwise
elimination, handshake outcomes from actual data/ACK frames decoding (or
not) on the medium.

This substrate is orders of magnitude slower than
:class:`~repro.core.fast_runtime.FastRuntime` and exists to *validate* it:
integration tests run both on the same scenarios and assert identical
schedules and identical step tallies.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.runtime import Runtime
from repro.phy.interference import PhysicalInterferenceModel
from repro.simulation.engine import SyncEngine
from repro.simulation.medium import Medium
from repro.simulation.programs import (
    handshake_program,
    leader_elect_program,
    scream_program,
)
from repro.topology.network import Network
from repro.util.rng import ensure_rng


class PacketRuntime(Runtime):
    """Execution substrate backed by the packet-level engine."""

    def __init__(
        self,
        model: PhysicalInterferenceModel,
        ids: np.ndarray,
        config: ProtocolConfig,
        faults: FaultConfig = NO_FAULTS,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        self._model = model
        self._ids = np.asarray(ids, dtype=np.int64)
        self.config = config
        if self._ids.shape != (model.n_nodes,):
            raise ValueError("ids must have one entry per node")
        self._medium = Medium(
            model,
            rng=ensure_rng(rng) if not faults.is_faultless else None,
            cs_miss_prob=faults.scream_miss_prob,
        )
        self._engine = SyncEngine(self._medium)

    @classmethod
    def for_network(
        cls,
        network: Network,
        config: ProtocolConfig,
        faults: FaultConfig = NO_FAULTS,
        rng: np.random.Generator | int | None = None,
        ids: np.ndarray | None = None,
    ) -> "PacketRuntime":
        node_ids = (
            np.arange(network.n_nodes, dtype=np.int64) if ids is None else ids
        )
        return cls(network.model, node_ids, config, faults=faults, rng=rng)

    @property
    def n_nodes(self) -> int:
        return self._model.n_nodes

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    def scream(self, inputs: np.ndarray) -> np.ndarray:
        arr = np.asarray(inputs, dtype=bool)
        self.tally.add_scream(self.config.k)
        programs = [
            scream_program(i, bool(arr[i]), self.config.k)
            for i in range(self.n_nodes)
        ]
        results = self._engine.run(programs)
        return np.asarray(results, dtype=bool)

    def leader_elect(self, participating: np.ndarray) -> np.ndarray:
        part = np.asarray(participating, dtype=bool)
        self.tally.elections += 1
        for _ in range(self.config.id_bits):
            self.tally.add_scream(self.config.k)
        programs = [
            leader_elect_program(
                i,
                int(self._ids[i]),
                bool(part[i]),
                self.config.id_bits,
                self.config.k,
            )
            for i in range(self.n_nodes)
        ]
        winners = np.asarray(self._engine.run(programs), dtype=bool)
        if int(winners.sum()) > 1:
            self.tally.multi_winner_elections += 1
        return winners

    def handshake(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        snd = np.asarray(senders, dtype=np.intp)
        rcv = np.asarray(receivers, dtype=np.intp)
        self.tally.add_handshake()
        if snd.size == 0:
            return np.zeros(0, dtype=bool)

        head_peer: dict[int, int] = {}
        for s, r in zip(snd, rcv):
            if int(s) in head_peer:
                raise ValueError(f"node {int(s)} heads two links in one handshake")
            head_peer[int(s)] = int(r)
        tails = {int(r) for r in rcv}

        programs = [
            handshake_program(i, head_peer.get(i), i in tails)
            for i in range(self.n_nodes)
        ]
        results = self._engine.run(programs)
        return np.asarray([results[int(s)] for s in snd], dtype=bool)
