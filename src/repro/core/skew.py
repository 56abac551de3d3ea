"""Uncompensated clock skew: what breaks when guards are too small.

The paper's implementations *compensate* for skew by stretching every
synchronized step (so skew costs time — Figures 8/9).  This module models
the alternative the paper implicitly argues against: keeping slots tight and
letting misaligned bursts fall outside listeners' windows.

With fixed per-node offsets (bounded by the skew bound) and a per-step guard
``g``, a listener reliably detects a SCREAM burst iff the pairwise
misalignment stays within ``g`` (see
:meth:`repro.simulation.clock.ClockModel.overlap_fraction`).  Degrading the
sensitivity graph accordingly and re-running the protocols shows exactly
when — and how — schedule computation collapses, detected by the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.clock import ClockModel


@dataclass(frozen=True)
class SkewDegradation:
    """Summary of a sensitivity graph degraded by uncompensated skew."""

    sens_adj: np.ndarray
    edges_total: int
    edges_lost: int

    @property
    def loss_fraction(self) -> float:
        if self.edges_total == 0:
            return 0.0
        return self.edges_lost / self.edges_total


def degrade_sensitivity_graph(
    sens_adj: np.ndarray,
    clock: ClockModel,
    burst_s: float,
    guard_s: float,
) -> SkewDegradation:
    """Remove sensitivity edges whose bursts slip out of the listen window.

    An edge stays only if its burst lies wholly inside the window: the
    reliability criterion of the compensated design.

    Parameters
    ----------
    sens_adj:
        The nominal directed sensitivity graph.
    clock:
        Per-node offsets (fixed for the computation's duration).
    burst_s:
        SCREAM burst duration (``8·SMBytes / bitrate``).
    guard_s:
        The guard actually budgeted per step (an *uncompensated* system
        keeps this below the skew bound).
    """
    adj = np.asarray(sens_adj, dtype=bool)
    n = adj.shape[0]
    degraded = adj.copy()
    lost = 0
    senders, listeners = np.nonzero(adj)
    for u, v in zip(senders, listeners):
        overlap = clock.overlap_fraction(int(u), int(v), burst_s, guard_s)
        if overlap < 1.0:
            degraded[u, v] = False
            lost += 1
    return SkewDegradation(
        sens_adj=degraded, edges_total=int(adj.sum()), edges_lost=lost
    )


def critical_skew_estimate(guard_s: float) -> float:
    """The skew bound beyond which *some* pair can exceed the guard.

    Offsets are uniform on ``[-b, +b]``; the worst pairwise misalignment is
    ``2b``, so detection is guaranteed only while ``2b <= guard`` — i.e.
    degradation becomes possible at ``b = guard / 2``.
    """
    if guard_s < 0:
        raise ValueError("guard_s must be non-negative")
    return guard_s / 2.0
