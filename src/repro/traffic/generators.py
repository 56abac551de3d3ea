"""Flow-level workload generators: per-node packet arrivals per epoch.

The static pipeline draws one demand vector and schedules it once; these
generators produce *evolving* demand — a sequence of per-node packet-arrival
counts, one vector per epoch — so the epoch loop
(:mod:`repro.traffic.epoch`) can re-schedule online against live backlogs.

All generators follow the library's seeding discipline
(:mod:`repro.util.rng`): arrivals are a deterministic function of the root
seed and the epoch index, so any epoch of any workload can be regenerated in
isolation (the one exception, the stateful :class:`ParetoOnOff` renewal
process, is deterministic given the root seed and the *sequence* of epochs
consumed, and documents it).  Rates are expressed in packets per node per
slot; gateways never generate traffic.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import freeze_root, spawn


def _source_rates(
    n_nodes: int,
    rate: float | np.ndarray,
    gateways: np.ndarray | None,
) -> np.ndarray:
    """Per-node rate vector with gateways silenced."""
    rates = np.broadcast_to(np.asarray(rate, dtype=float), (n_nodes,)).copy()
    if np.any(rates < 0):
        raise ValueError("arrival rates must be non-negative")
    if gateways is not None:
        rates[np.asarray(gateways, dtype=np.intp)] = 0.0
    return rates


class TrafficGenerator:
    """Base class: a per-node packet-arrival process observed per epoch.

    Subclasses implement :meth:`arrivals`; everything downstream (queues,
    epoch loop, stability sweeps) only needs that method.
    """

    def __init__(
        self,
        n_nodes: int,
        rate: float | np.ndarray,
        gateways: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = int(n_nodes)
        self.rates = _source_rates(n_nodes, rate, gateways)
        self._gateways = None if gateways is None else np.array(gateways, dtype=np.intp)
        # Freezing the root (rather than storing a live generator) is what
        # makes arrivals(epoch, ...) a pure function of (seed, epoch).
        self._entropy = freeze_root(seed)

    def arrivals(self, epoch: int, n_slots: int) -> np.ndarray:
        """``(n_nodes,)`` integer packet arrivals during ``epoch``.

        ``n_slots`` is the epoch length; epochs are assumed uniform so slot
        ``epoch * n_slots`` is the epoch's first slot.
        """
        raise NotImplementedError


    def _rng(self, *key: int | str) -> np.random.Generator:
        return spawn(self._entropy, type(self).__name__, *key)


class PoissonArrivals(TrafficGenerator):
    """Memoryless arrivals: ``Poisson(rate * n_slots)`` packets per epoch."""

    def arrivals(self, epoch: int, n_slots: int) -> np.ndarray:
        return self._rng(epoch).poisson(self.rates * n_slots).astype(np.int64)


#: :class:`ParetoOnOff`'s sojourns: Pareto shape (heavy tail, finite mean)
#: and the mean ON and OFF phase lengths, in slots.
PARETO_ALPHA = 1.5
MEAN_ON_SLOTS = 50.0
MEAN_OFF_SLOTS = 150.0


class ParetoOnOff(TrafficGenerator):
    """Bursty heavy-tailed on–off sources (Pareto sojourn times).

    Each node alternates between ON phases (emitting ``peak_rate`` packets
    per slot, fluid-accumulated) and silent OFF
    phases; both sojourn durations are Pareto with shape
    :data:`PARETO_ALPHA`, with means :data:`MEAN_ON_SLOTS` and
    :data:`MEAN_OFF_SLOTS`.  The ``rate`` constructor argument
    is the *long-run average*: ``peak_rate = rate / duty_cycle`` where
    ``duty_cycle = mean_on / (mean_on + mean_off)``.

    The process is a renewal process with real state, so unlike the other
    generators it must be stepped through epochs **in order** (the epoch
    argument is validated); :meth:`reset` rewinds to slot 0.  Two instances
    built with the same seed replay the identical sequence.
    """

    def __init__(
        self,
        n_nodes: int,
        rate: float | np.ndarray,
        gateways: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__(n_nodes, rate, gateways, seed)
        self.duty_cycle = MEAN_ON_SLOTS / (MEAN_ON_SLOTS + MEAN_OFF_SLOTS)
        self.peak_rates = self.rates / self.duty_cycle
        self.reset()

    def reset(self) -> None:
        """Rewind the renewal process to slot 0 (same seed, same replay)."""
        self._state_rng = spawn(self._entropy, type(self).__name__, "renewal")
        self._next_epoch = 0
        # Start every node in OFF with a fresh OFF sojourn so sources
        # desynchronize.
        self._on = np.zeros(self.n_nodes, dtype=bool)
        self._remaining = self._sojourn(self._on)
        self._on_credit = np.zeros(self.n_nodes, dtype=float)

    def _sojourn(self, on: np.ndarray) -> np.ndarray:
        """Pareto sojourn lengths (slots) for each node's *current* phase."""
        mean = np.where(on, MEAN_ON_SLOTS, MEAN_OFF_SLOTS)
        scale = mean * (PARETO_ALPHA - 1.0) / PARETO_ALPHA  # Pareto minimum x_m
        u = self._state_rng.random(self.n_nodes)
        return scale / np.power(u, 1.0 / PARETO_ALPHA)

    def arrivals(self, epoch: int, n_slots: int) -> np.ndarray:
        if epoch != self._next_epoch:
            raise ValueError(
                f"ParetoOnOff is a stateful renewal process: expected epoch "
                f"{self._next_epoch}, got {epoch}; call reset() to rewind"
            )
        self._next_epoch += 1

        counts = np.zeros(self.n_nodes, dtype=np.int64)
        left = np.full(self.n_nodes, float(n_slots))
        while np.any(left > 0):
            step = np.minimum(left, self._remaining)
            on_time = np.where(self._on, step, 0.0)
            # Fluid ON credit -> integer packets (remainder carried over).
            self._on_credit += self.peak_rates * on_time
            emitted = np.floor(self._on_credit)
            counts += emitted.astype(np.int64)
            self._on_credit -= emitted
            left -= step
            self._remaining -= step
            flip = self._remaining <= 1e-9
            if np.any(flip):
                self._on = np.where(flip, ~self._on, self._on)
                fresh = self._sojourn(self._on)
                self._remaining = np.where(flip, fresh, self._remaining)
        return counts
