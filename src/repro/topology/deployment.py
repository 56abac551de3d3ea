"""Node placement for the paper's deployment scenarios.

* :func:`grid_positions` — the *planned* scenario: a square lattice filling
  the region (Section IV-B.1 and the "Grid" experiments of Section VI).
* :func:`uniform_positions` — the *unplanned* scenario: uniform random
  placement (Section IV-B.2 and the "Uniform Random Placement" experiments).
* :func:`line_positions` — degenerate line networks, used by the
  impossibility construction of Theorem 1 (hop diameter Θ(n)).
"""

from __future__ import annotations

import numpy as np

from repro.topology.regions import SquareRegion
from repro.util.validation import check_integer_in_range


def grid_positions(rows: int, cols: int, region: SquareRegion) -> np.ndarray:
    """Positions of a ``rows x cols`` lattice spanning ``region``.

    Nodes sit at the lattice points of a square grid whose step is chosen so
    the outermost nodes lie on the region boundary; for an 8x8 grid in a
    square of side L the grid step is ``L / 7``.

    Returns an ``(rows * cols, 2)`` array in row-major node order.
    """
    check_integer_in_range("rows", rows, minimum=1)
    check_integer_in_range("cols", cols, minimum=1)
    xs = np.linspace(0.0, region.side, cols) if cols > 1 else np.array([region.side / 2])
    ys = np.linspace(0.0, region.side, rows) if rows > 1 else np.array([region.side / 2])
    xx, yy = np.meshgrid(xs, ys)
    return np.column_stack([xx.ravel(), yy.ravel()])


def uniform_positions(
    n: int, region: SquareRegion, rng: np.random.Generator
) -> np.ndarray:
    """``n`` positions uniform in the region (the unplanned scenario)."""
    check_integer_in_range("n", n, minimum=1)
    return rng.uniform(0.0, region.side, size=(n, 2))


def line_positions(n: int, spacing: float) -> np.ndarray:
    """``n`` nodes along the x axis with constant spacing.

    Produces the Θ(n) hop-diameter networks used in Theorem 1's
    impossibility construction ("nodes along a line").
    """
    check_integer_in_range("n", n, minimum=1)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    xs = np.arange(n, dtype=float) * spacing
    return np.column_stack([xs, np.zeros(n)])
