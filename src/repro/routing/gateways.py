"""Gateway selection for the two deployment scenarios.

The paper's experiments use 64 nodes of which 4 act as Internet gateways.
For planned (grid) deployments the gateways are placed at regular positions;
for unplanned deployments they are picked at random (any mesh node can host
the wired uplink).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_integer_in_range


def planned_gateways(rows: int, cols: int, count: int = 4) -> np.ndarray:
    """Evenly spread gateway node indices for a ``rows x cols`` grid.

    Gateways are placed at the centers of the ``ceil(sqrt(count))``-way
    subdivision of the grid — for the paper's 8x8 grid and 4 gateways this
    yields the nodes at lattice coordinates (2,2), (2,5), (5,2), (5,5).
    Node indices follow the row-major order of
    :func:`repro.topology.deployment.grid_positions`.
    """
    check_integer_in_range("rows", rows, minimum=1)
    check_integer_in_range("cols", cols, minimum=1)
    check_integer_in_range("count", count, minimum=1, maximum=rows * cols)
    per_side = int(np.ceil(np.sqrt(count)))
    row_slots = np.linspace(0, rows - 1, 2 * per_side + 1)[1::2]
    col_slots = np.linspace(0, cols - 1, 2 * per_side + 1)[1::2]
    chosen: list[int] = []
    for r in np.round(row_slots).astype(int):
        for c in np.round(col_slots).astype(int):
            if len(chosen) < count:
                chosen.append(int(r * cols + c))
    return np.array(sorted(set(chosen)), dtype=np.intp)


def random_gateways(
    n_nodes: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct random gateway indices (unplanned scenario)."""
    check_integer_in_range("n_nodes", n_nodes, minimum=1)
    check_integer_in_range("count", count, minimum=1, maximum=n_nodes)
    return np.sort(rng.choice(n_nodes, size=count, replace=False)).astype(np.intp)
