"""The Runtime interface: the execution substrate of the distributed protocols.

PDD and FDD are written once, against this interface; substrates implement
the three network-wide primitives with different fidelity/performance
trade-offs:

* :class:`~repro.core.fast_runtime.FastRuntime` — vectorized, slot-faithful
  (used by experiments);
* :class:`~repro.simulation.packet_runtime.PacketRuntime` — per-node
  generator programs over the packet-level medium (used for validation).

Every primitive also accounts the synchronized steps it consumes in a
:class:`~repro.core.events.StepTally`, from which execution time is priced.

On top of the three primitives sit the two *round* operations the protocol
loop is written against — :meth:`Runtime.elect_each` and
:meth:`Runtime.resolve_trials`.  Their defaults here execute the paper's
construction step one at a time through the primitives and are the
reference semantics; a substrate may override them only with something that
returns the same values and books the same tally (DESIGN.md §2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.core.events import StepTally


class Runtime(ABC):
    """Execution substrate for the distributed scheduling protocols."""

    #: May the round loop draw a slot's later activations (elections, coin
    #: flips) before earlier trials are resolved?  Only a substrate whose
    #: primitives commute can say yes; one that shares a fault RNG stream
    #: between them, or executes them on a medium, must keep paper order.
    batches_trials = False

    #: The feasibility model on which a whole FDD run is one first-fit pack
    #: (Theorem 4; :func:`repro.core.protocol.run_by_theorem4`), or ``None``.
    #: Only a substrate whose primitives commute and whose every SCREAM
    #: reaches every node can name one.
    theorem4_model = None

    def __init__(self) -> None:
        self.tally = StepTally()

    @property
    @abstractmethod
    def n_nodes(self) -> int:
        """Number of nodes participating in the protocol."""

    @abstractmethod
    def scream(self, inputs: np.ndarray) -> np.ndarray:
        """One SCREAM invocation (K slots); returns per-node OR results."""

    @abstractmethod
    def leader_elect(self, participating: np.ndarray) -> np.ndarray:
        """Bitwise leader election among ``participating``; winner mask."""

    @abstractmethod
    def handshake(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Concurrent two-way handshakes; per-link success mask.

        All listed links transmit their data packets in the same data
        sub-slot and their ACKs in the same ACK sub-slot; link ``k``
        succeeds iff both its packets decode under the concurrent SINR.
        """

    def sync(self) -> None:
        """One bare GlobalSync barrier."""
        self.tally.add_sync()

    def elect_each(self, pool: np.ndarray) -> Iterator[np.ndarray]:
        """FDD's activation order: elections repeated on a shrinking pool.

        Lazily yields the winners (node indices, ascending) of one full
        :meth:`leader_elect` among ``pool`` after another, each election's
        winners leaving the pool before the next.  Never ends: once the
        pool is empty every further election is still held (and charged)
        and elects nobody — how FDD nodes discover a saturated slot.
        """
        remaining = np.array(pool, dtype=bool)
        while True:
            winners = self.leader_elect(remaining)
            remaining &= ~winners
            yield np.flatnonzero(winners)

    def resolve_trials(
        self,
        confirmed: np.ndarray,
        trials: Sequence[np.ndarray],
        tail_of: np.ndarray,
        dormant: np.ndarray,
        seal_on_idle: bool,
    ) -> tuple[int, np.ndarray]:
        """Run construction steps against a frozen confirmed set.

        ``trials`` (at least one) are the tentative activations of
        consecutive construction steps — node indices, ascending, each node
        heading the link to ``tail_of[node]`` — and ``confirmed`` the
        slot's CONTROL/ALLOCATED members (ascending).  As long as nobody
        joins, the confirmed set does not change and each step is an
        independent what-if against it, so steps are executed in order up
        to and including the first one that admits somebody.  Returns
        ``(steps executed, nodes that joined in the last of them)``; every
        other activated node of the executed steps ends TRIED.  ``dormant``
        is the DORMANT mask before the first trial, needed for the
        seal-check contribution.

        One step, as in the paper's ``GreedyScheduleSlot``: a handshake
        time step in which every tentative and confirmed member exercises
        its link concurrently; a verification SCREAM in which confirmed
        members announce their own failure (veto power); actives join
        unless their own handshake failed or they hear a veto (DESIGN.md §2
        on the pseudocode's HSfail overwrite); and the seal-check SCREAM
        (DESIGN.md §2 on ``stillActives``), to which a node contributes "I
        could still become active" (DORMANT) by default, or "I was active
        this step" under ``seal_on_idle``.  The seal SCREAM's result is not
        returned: a source always hears itself, so on every substrate
        somebody hears it iff somebody contributes, which the caller knows
        from the activation sequence alone.
        """
        n = dormant.shape[0]
        pool = dormant.copy()
        joined = np.empty(0, dtype=np.intp)
        for done, activated in enumerate(trials, start=1):
            pool[activated] = False
            self.sync()
            members = np.sort(np.concatenate([confirmed, activated]))
            success = self.handshake(members, tail_of[members])
            failed = np.zeros(n, dtype=bool)
            failed[members[~success]] = True

            veto_inputs = np.zeros(n, dtype=bool)
            veto_inputs[confirmed] = failed[confirmed]
            veto = self.scream(veto_inputs)
            if veto_inputs.any():
                self.tally.veto_steps += 1
            joined = activated[~(failed[activated] | veto[activated])]

            if seal_on_idle:
                contrib = np.zeros(n, dtype=bool)
                contrib[activated] = True
            else:
                contrib = pool
            self.sync()
            self.scream(contrib)
            if joined.size:
                return done, joined
        return len(trials), joined
