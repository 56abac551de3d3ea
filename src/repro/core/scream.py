"""The SCREAM primitive: a carrier-sensing flood computing a network-wide OR.

Section III-A of the paper.  Every node holding ``true`` transmits
("screams") in every slot; silent nodes listen, and start relaying from the
slot after they first detect activity.  Detection is based on *energy*, so
concurrent screams reinforce rather than collide — the primitive is
collision-resilient by construction.

After ``K`` slots, node ``v`` holds ``true`` iff some initially-true node
``u`` satisfies ``d_GS(u, v) <= K``; hence ``K >= ID(GS)`` makes the result
the exact network-wide OR (every node reachable), and ``K < ID(GS)``
truncates propagation — the failure mode the localized-impossibility and
ablation experiments exercise.
"""

from __future__ import annotations

import numpy as np


def scream_flood(
    sens_adj: np.ndarray,
    inputs: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    miss_prob: float = 0.0,
) -> np.ndarray:
    """Slot-by-slot SCREAM flood over the sensitivity graph.

    Parameters
    ----------
    sens_adj:
        Directed boolean adjacency of the sensitivity graph
        (``sens_adj[u, v]`` = v senses u's transmission).
    inputs:
        Per-node boolean variables (``var(i)`` in the paper).
    k:
        Number of SCREAM slots.
    rng, miss_prob:
        Optional carrier-sense fault model: each listening node
        independently fails to detect activity in a slot with probability
        ``miss_prob`` (detector noise; concurrent screamers still count as
        one detection opportunity because energies add).

    Returns
    -------
    numpy.ndarray
        Per-node boolean results (``relay`` after K slots).
    """
    adj = np.asarray(sens_adj, dtype=bool)
    relay = np.asarray(inputs, dtype=bool).copy()
    if relay.shape != (adj.shape[0],):
        raise ValueError(
            f"inputs must have shape ({adj.shape[0]},), got {relay.shape}"
        )
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if miss_prob and rng is None:
        raise ValueError("rng is required when miss_prob > 0")

    for _ in range(k):
        if relay.all():
            break  # flood saturated; remaining slots change nothing
        heard = adj[relay].any(axis=0) if relay.any() else np.zeros_like(relay)
        if miss_prob:
            heard &= rng.random(relay.shape[0]) >= miss_prob
        relay |= heard
    return relay
