"""Protocol and fault-injection configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_integer_in_range, check_probability


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters shared by PDD and FDD.

    Attributes
    ----------
    k:
        SCREAM duration in slots.  Must upper-bound the interference
        diameter ``ID(GS)`` for correct network-wide ORs; the paper's
        experiments use 5.
    smbytes:
        Bytes transmitted per SCREAM slot (timing + detection reliability;
        the paper's experiments use 15).
    id_bits:
        Bits per node identifier used by leader election.  The paper assumes
        ``id_bits = ln n``; 8 covers the 64-node scenarios with headroom.
    p_active:
        PDD's probability that a dormant node turns ACTIVE in a step.
    seal_on_idle_step:
        Slot-sealing rule (the paper's pseudocode is ambiguous — see
        DESIGN.md).  ``False`` (default): the slot seals when no DORMANT
        node remains, the reading consistent with the paper's reported PDD
        results.  ``True``: the slot seals after any step in which no node
        turned ACTIVE.
    max_rounds:
        Safety cap on protocol rounds (guards degraded-mode loops);
        ``None`` derives ``10 * TD + 10`` at run time.
    """

    k: int = 5
    smbytes: int = 15
    id_bits: int = 8
    p_active: float = 0.2
    seal_on_idle_step: bool = False
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        check_integer_in_range("k", self.k, minimum=1)
        check_integer_in_range("smbytes", self.smbytes, minimum=1)
        check_integer_in_range("id_bits", self.id_bits, minimum=1)
        check_probability("p_active", self.p_active)
        if self.max_rounds is not None:
            check_integer_in_range("max_rounds", self.max_rounds, minimum=1)

    def with_p(self, p_active: float) -> "ProtocolConfig":
        return replace(self, p_active=p_active)


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection for the SCREAM substrate (ablations A1/E1 coupling).

    Attributes
    ----------
    scream_miss_prob:
        Per-listener, per-slot probability of failing to detect channel
        activity during a SCREAM slot.  0 disables the fault model (exact
        carrier sensing).  Values can be derived from the mote detection
        model via :func:`repro.mote.experiment.miss_probability`.
    """

    scream_miss_prob: float = 0.0

    def __post_init__(self) -> None:
        check_probability("scream_miss_prob", self.scream_miss_prob)

    @property
    def is_faultless(self) -> bool:
        return self.scream_miss_prob == 0.0


NO_FAULTS = FaultConfig()
