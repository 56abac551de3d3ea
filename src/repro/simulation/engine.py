"""The lock-step engine: per-node generator programs over the shared medium.

A *node program* is a Python generator that yields one action per
synchronized slot — either a :class:`~repro.simulation.medium.Transmission`
or ``None`` (listen) — and receives back its local
:class:`~repro.simulation.medium.SlotOutcome`.  Programs therefore only see
what a real node would see; the network-wide result of a primitive emerges
from the flood dynamics instead of being computed globally.

Programs terminate by ``return``-ing a value; the engine collects return
values per node.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.simulation.medium import Medium, SlotOutcome, Transmission

#: A node program: yields Transmission|None per slot, receives SlotOutcome.
NodeProgram = Generator["Transmission | None", SlotOutcome, Any]


#: Slots a run's programs must all finish within (they are slot-synchronous
#: protocols with deterministic horizons).
MAX_SLOTS = 1_000_000


class SyncEngine:
    """Runs one generator program per node in global lock-step."""

    def __init__(self, medium: Medium):
        self.medium = medium
        self.slots_elapsed = 0

    def run(self, programs: list[NodeProgram]) -> list[Any]:
        """Drive all programs to completion; return their return values.

        All programs are stepped once per slot; the slot's transmissions are
        resolved jointly by the medium and each program receives its own
        outcome.  Programs must all finish within :data:`MAX_SLOTS`.

        Raises
        ------
        RuntimeError
            If some program is still running after :data:`MAX_SLOTS` or if
            programs finish at different slots (protocol desynchronization —
            a bug in the program, not a legal outcome).
        """
        n = self.medium.n_nodes
        if len(programs) != n:
            raise ValueError(f"need exactly {n} programs, got {len(programs)}")

        results: list[Any] = [None] * n
        finished = [False] * n
        actions: list[Transmission | None] = [None] * n
        # The first send primes every generator to its first yield.
        outcomes: list[Any] = [None] * n
        for _ in range(MAX_SLOTS + 1):
            for i, prog in enumerate(programs):
                try:
                    actions[i] = prog.send(outcomes[i])
                except StopIteration as stop:
                    finished[i] = True
                    results[i] = stop.value
                    actions[i] = None
            if all(finished):
                return results
            if any(finished):
                running = [i for i, f in enumerate(finished) if not f]
                done = [i for i, f in enumerate(finished) if f]
                raise RuntimeError(
                    f"programs desynchronized: {done[:5]} finished while "
                    f"{running[:5]} still run"
                )
            transmissions = [a for a in actions if a is not None]
            outcomes = self.medium.resolve(transmissions)
            self.slots_elapsed += 1
        raise RuntimeError(f"programs did not finish within {MAX_SLOTS} slots")
