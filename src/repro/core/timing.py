"""Timing model: pricing step tallies into wall-clock execution time.

The protocols' execution time is a pure function of (a) how many
synchronized steps of each kind they consumed — the
:class:`~repro.core.events.StepTally` — and (b) per-step durations derived
from radio constants, the SCREAM size, and the clock-skew bound.

Every globally synchronized step must absorb the worst-case clock
misalignment between any transmitter/listener pair, so each step's duration
includes a guard of ``guard_factor * skew_bound`` ("The protocol
implementations compensate for the clock skew among the nodes").  This is
what produces the paper's execution-time-vs-skew behaviour: flat while the
guard is negligible against the transmission time, then linear in the skew
bound — with FDD degrading earlier than PDD because it synchronizes several
times more often per scheduled slot (all those election SCREAM slots).

Absolute constants are calibration choices (the paper inherited its own from
GTNetS' 802.11 model); defaults are chosen to land the paper's 64-node
scenarios in the same few-seconds regime as its Figure "Execution Time vs.
SCREAM size and Interference Diameter".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import StepTally
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class TimingModel:
    """Per-step durations for pricing protocol executions.

    Attributes
    ----------
    bitrate_bps:
        PHY rate used for SCREAM bursts, probes and ACKs (default 54 Mbit/s,
        802.11a/g OFDM).
    slot_overhead_s:
        Fixed per-step cost: radio turnaround plus PHY framing (1 µs).
    scream_bytes:
        Bytes transmitted per SCREAM slot (``SMBytes``).
    data_bytes / ack_bytes:
        Handshake data-probe and ACK sizes.  The handshake sends a real
        data packet (Section III-C), so the probe defaults to a mid-size
        frame.
    skew_bound_s:
        Bound on pairwise clock skew.
    guard_factor:
        Guard time per synchronized step, in units of the skew bound
        (2 covers the worst case of one clock early and one late).
    """

    bitrate_bps: float = 54e6
    slot_overhead_s: float = 1e-6
    scream_bytes: int = 15
    data_bytes: int = 256
    ack_bytes: int = 14
    skew_bound_s: float = 1e-6
    guard_factor: float = 2.0

    def __post_init__(self) -> None:
        check_positive("bitrate_bps", self.bitrate_bps)
        check_non_negative("slot_overhead_s", self.slot_overhead_s)
        check_positive("scream_bytes", float(self.scream_bytes))
        check_positive("data_bytes", float(self.data_bytes))
        check_positive("ack_bytes", float(self.ack_bytes))
        check_non_negative("skew_bound_s", self.skew_bound_s)
        check_non_negative("guard_factor", self.guard_factor)

    @property
    def guard_s(self) -> float:
        """Per-step guard time absorbing clock misalignment."""
        return self.guard_factor * self.skew_bound_s

    def _step(self, payload_bytes: float) -> float:
        return self.slot_overhead_s + 8.0 * payload_bytes / self.bitrate_bps + self.guard_s

    @property
    def scream_slot_s(self) -> float:
        """Duration of one SCREAM slot."""
        return self._step(self.scream_bytes)

    @property
    def data_subslot_s(self) -> float:
        """Duration of a handshake data sub-slot."""
        return self._step(self.data_bytes)

    @property
    def ack_subslot_s(self) -> float:
        """Duration of a handshake ACK sub-slot."""
        return self._step(self.ack_bytes)

    @property
    def sync_s(self) -> float:
        """Duration of a bare GlobalSync barrier."""
        return self.slot_overhead_s + self.guard_s

    def message_s(self, payload_bytes: float) -> float:
        """Air time of one in-band control message of ``payload_bytes`` bytes.

        Control traffic (patch deltas, backlog reports, reconciliation
        rounds, session signaling — see :mod:`repro.core.controlplane`)
        rides the same synchronized air as the protocol steps, so a message
        costs exactly one step of its payload size: turnaround + payload at
        the PHY rate + the skew guard.
        """
        check_positive("payload_bytes", float(payload_bytes))
        return self._step(payload_bytes)

    def execution_time(self, tally: StepTally) -> float:
        """Wall-clock seconds for a protocol execution's step tally."""
        return (
            tally.scream_slots * self.scream_slot_s
            + tally.data_subslots * self.data_subslot_s
            + tally.ack_subslots * self.ack_subslot_s
            + tally.syncs * self.sync_s
        )


def reprice_scream_slots(tally: StepTally, old_k: int, new_k: int) -> StepTally:
    """Scale a tally's SCREAM slots from K=``old_k`` to K=``new_k``.

    Valid when both K values upper-bound the interference diameter: the
    protocol's behaviour (hence every other counter) is K-invariant in the
    exact regime, and each of the ``scream_calls`` invocations simply spans
    ``new_k`` instead of ``old_k`` slots.
    """
    if old_k <= 0 or new_k <= 0:
        raise ValueError("K values must be positive")
    if tally.scream_slots % old_k:
        raise ValueError(
            f"tally has {tally.scream_slots} scream slots, not a multiple of "
            f"old_k={old_k}; was it produced with a different K?"
        )
    repriced = StepTally(**tally.as_dict())
    repriced.scream_slots = tally.scream_calls * new_k
    return repriced
