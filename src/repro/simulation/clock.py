"""Per-node clock offsets under a bounded-skew model (Section VI).

The paper assumes clocks "synchronized to a global time, within a reasonable
degree of accuracy" and studies the effect of a bounded skew.  Implementations
compensate by stretching every synchronized step with a guard interval; the
model here quantifies when that compensation suffices.

A node's clock offset is drawn uniformly from ``[-bound, +bound]`` and held
fixed (drift between two schedule computations is folded into the bound).
With a per-step guard ``g``, a transmission of duration ``tau`` beginning at
nominal slot start is fully contained in every listener's slot window iff
``offset(tx) - offset(rx)`` stays within ``g - tau``-ish margins; the
overlap fraction below quantifies partial containment for detection
modelling.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_non_negative


class ClockModel:
    """Fixed per-node clock offsets with a uniform bounded-skew law."""

    def __init__(
        self,
        n_nodes: int,
        skew_bound_s: float,
        rng: np.random.Generator,
    ):
        check_non_negative("skew_bound_s", skew_bound_s)
        self.skew_bound_s = skew_bound_s
        self.offsets = (
            rng.uniform(-skew_bound_s, skew_bound_s, size=n_nodes)
            if skew_bound_s > 0
            else np.zeros(n_nodes)
        )

    def pairwise_misalignment(self, sender: int, listener: int) -> float:
        """Absolute clock misalignment between two nodes (seconds)."""
        return float(abs(self.offsets[sender] - self.offsets[listener]))

    def overlap_fraction(
        self, sender: int, listener: int, burst_s: float, guard_s: float
    ) -> float:
        """Fraction of a burst landing inside the listener's slot window.

        The sender transmits for ``burst_s`` starting at its local slot
        start; the listener's detection window spans its local slot plus the
        guard.  1.0 means fully contained (reliable detection); 0.0 means
        the burst entirely missed the window.
        """
        if burst_s <= 0:
            return 1.0
        misalignment = self.pairwise_misalignment(sender, listener)
        margin = guard_s - misalignment
        if margin >= 0:
            return 1.0
        overshoot = min(-margin, burst_s)
        return 1.0 - overshoot / burst_s
