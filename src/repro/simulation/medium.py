"""The shared wireless medium: per-slot resolution of concurrent actions.

Each synchronized slot, every node either transmits one frame or listens.
The medium resolves the slot physically:

* **carrier sensing** — a listening node senses activity iff the *total*
  received power from all concurrent transmitters clears its CS threshold
  (energies add; this is the collision-resilience SCREAM relies on);
* **packet decoding** — an addressed frame decodes at its destination iff
  its SINR against all other concurrent transmissions clears ``beta``
  (half-duplex: transmitting nodes decode nothing and sense nothing beyond
  their own activity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.sinr import carrier_sense_power
from repro.simulation.clock import ClockModel


@dataclass(frozen=True)
class Transmission:
    """One frame on the air in one slot.

    ``dest`` is ``None`` for anonymous energy bursts (SCREAMs); payload is
    opaque to the medium.
    """

    sender: int
    dest: int | None = None
    payload: Any = None


@dataclass(frozen=True)
class SlotOutcome:
    """What one node locally observed in one slot."""

    sensed: bool = False
    received: tuple[Transmission, ...] = ()


class Medium:
    """Physical medium bound to a network's interference model.

    Two optional degradation mechanisms mirror the protocol-level fault
    models so the packet engine reproduces them *emergently*:

    * ``cs_miss_prob`` — per-listener carrier-sense detection noise
      (:class:`~repro.core.config.FaultConfig`);
    * ``clock`` + ``guard_s`` + ``burst_s`` — uncompensated clock skew: a
      transmitter's burst only overlaps a misaligned listener's window
      partially, scaling the energy that listener integrates (zero overlap
      = invisible burst).  See :mod:`repro.core.skew` for the vectorized
      counterpart.
    """

    def __init__(
        self,
        model: PhysicalInterferenceModel,
        rng: np.random.Generator | None = None,
        cs_miss_prob: float = 0.0,
        clock: ClockModel | None = None,
        guard_s: float = 0.0,
        burst_s: float = 0.0,
    ):
        if cs_miss_prob and rng is None:
            raise ValueError("rng is required when cs_miss_prob > 0")
        if clock is not None and burst_s <= 0:
            raise ValueError("burst_s must be positive when a clock is modelled")
        self._model = model
        self._rng = rng
        self.cs_miss_prob = float(cs_miss_prob)
        self._clock = clock
        self._guard_s = float(guard_s)
        self._burst_s = float(burst_s)
        self._overlap: np.ndarray | None = None
        if clock is not None:
            n = model.n_nodes
            overlap = np.ones((n, n))
            for u in range(n):
                for v in range(n):
                    if u != v:
                        overlap[u, v] = clock.overlap_fraction(
                            u, v, self._burst_s, self._guard_s
                        )
            self._overlap = overlap
        self.slots_resolved = 0

    @property
    def n_nodes(self) -> int:
        return self._model.n_nodes

    def resolve(self, transmissions: list[Transmission]) -> list[SlotOutcome]:
        """Resolve one slot; return each node's local observation.

        Raises :class:`ValueError` if a node transmits twice in the slot
        (radios are single-antenna).
        """
        self.slots_resolved += 1
        n = self.n_nodes
        senders = [t.sender for t in transmissions]
        if len(set(senders)) != len(senders):
            raise ValueError("a node transmitted more than one frame in a slot")

        if not transmissions:
            return [SlotOutcome() for _ in range(n)]

        power = self._model.power
        tx_idx = np.asarray(senders, dtype=np.intp)
        if self._overlap is None:
            total_power = carrier_sense_power(power, tx_idx, n)
        else:
            total_power = (power[tx_idx, :] * self._overlap[tx_idx, :]).sum(axis=0)

        sensed = total_power >= self._model.radio.cs_threshold_mw
        if self.cs_miss_prob:
            sensed &= self._rng.random(n) >= self.cs_miss_prob
        # Half-duplex: transmitters observe only their own activity.
        sensed[tx_idx] = True

        received: list[list[Transmission]] = [[] for _ in range(n)]
        transmitting = np.zeros(n, dtype=bool)
        transmitting[tx_idx] = True
        noise = self._model.radio.noise_mw
        beta = self._model.radio.beta
        for t in transmissions:
            if t.dest is None or transmitting[t.dest]:
                continue
            signal = power[t.sender, t.dest]
            interference = total_power[t.dest] - signal
            if signal >= beta * (noise + interference):
                received[t.dest].append(t)

        return [
            SlotOutcome(sensed=bool(sensed[i]), received=tuple(received[i]))
            for i in range(n)
        ]
