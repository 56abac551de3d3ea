"""Step tallies: counting the synchronized time steps a protocol consumes.

The distributed protocols advance in globally synchronized steps of four
kinds (SCREAM slots, data sub-slots, ACK sub-slots, bare sync barriers).
Execution time is a pure function of these tallies and the
:class:`~repro.core.timing.TimingModel`, which is exactly how the paper's
execution-time figures are produced: identical protocol executions re-priced
under different SCREAM sizes and clock-skew bounds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StepTally:
    """Counters of synchronized steps and semantic protocol events.

    Step counters (define execution time):

    * ``scream_slots`` — one per SCREAM slot (a SCREAM invocation adds K);
    * ``data_subslots`` / ``ack_subslots`` — handshake sub-slots;
    * ``syncs`` — bare GlobalSync barriers with no transmission.

    Semantic counters (diagnostics, complexity validation):

    * ``scream_calls`` — SCREAM invocations;
    * ``elections`` — leader elections;
    * ``handshakes`` — handshake steps (each = 1 data + 1 ACK sub-slot);
    * ``rounds`` — protocol rounds (= slots added to the schedule);
    * ``steps`` — greedy slot-construction iterations;
    * ``veto_steps`` — steps in which some allocated link vetoed;
    * ``multi_winner_elections`` — elections that produced >1 winner
      (possible only under truncated/faulty SCREAM).
    """

    scream_slots: int = 0
    data_subslots: int = 0
    ack_subslots: int = 0
    syncs: int = 0
    scream_calls: int = 0
    elections: int = 0
    handshakes: int = 0
    rounds: int = 0
    steps: int = 0
    veto_steps: int = 0
    multi_winner_elections: int = 0

    def add_scream(self, k: int, count: int = 1) -> None:
        """Record ``count`` SCREAM invocations of K slots each."""
        self.scream_calls += count
        self.scream_slots += count * k

    def add_handshake(self, count: int = 1) -> None:
        """Record ``count`` two-way handshake steps (data + ACK sub-slots)."""
        self.handshakes += count
        self.data_subslots += count
        self.ack_subslots += count

    def add_sync(self, count: int = 1) -> None:
        self.syncs += count

    @property
    def total_steps(self) -> int:
        """All synchronized time steps of any kind."""
        return self.scream_slots + self.data_subslots + self.ack_subslots + self.syncs

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))

    def __str__(self) -> str:
        return (
            f"StepTally(rounds={self.rounds}, steps={self.steps}, "
            f"scream_slots={self.scream_slots}, handshakes={self.handshakes}, "
            f"syncs={self.syncs}, total_steps={self.total_steps})"
        )
