"""Closed-form bounds from the paper's analysis (Section IV).

* Theorem 2 — square grids: ``ID(G) <= sqrt(2) * diam(R) / r``; tight at
  ``2 sqrt(n)`` for a lattice-aligned square.
* Theorem 3 — random uniform deployments at the connectivity threshold:
  ``ID(G) = Theta(sqrt(n / log n))``, via the cell-subdivision argument
  (cells of side ``r / (2 sqrt(2))``, every cell occupied w.h.p.).
* Theorem 4 — approximation bound of FDD (inherited from GreedyPhysical):
  ``T_FDD / T_opt ∈ O(n^{1 - 2/(psi+eps)} (log n)^{2/(psi+eps)})``.
* Theorem 5 — FDD time complexity ``O(TD * ID(G) * n log n)``.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive


def grid_id_bound(diameter_m: float, range_m: float) -> float:
    """Theorem 2's upper bound on a grid's interference diameter.

    ``sqrt(2) * diam(R) / r`` for a square-grid-convex region of Euclidean
    diameter ``diam(R)`` and node range ``r`` equal to the grid step.
    """
    check_positive("diameter_m", diameter_m)
    check_positive("range_m", range_m)
    return float(np.sqrt(2.0) * diameter_m / range_m)


def uniform_id_bound(n: int) -> float:
    """Theorem 3's bound for uniform deployments at connectivity density.

    The cell-traversal count ``2 sqrt(2 pi n / ln n)`` for the unit square
    with ``r(n) = sqrt(ln n / (pi n))``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return float(2.0 * np.sqrt(2.0 * np.pi * n / np.log(n)))


def connectivity_range_uniform(n: int) -> float:
    """The critical connectivity range ``r(n) = sqrt(ln n / (pi n))``.

    For n nodes uniform in the unit square, this is the asymptotically
    minimal range for w.h.p. connectivity (Section IV-B.2).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return float(np.sqrt(np.log(n) / (np.pi * n)))


#: Theorem 4's ``psi(alpha) + eps`` at the paper's path-loss exponent
#: ``alpha = 3``.  The paper defers ``psi`` to ref. [4]; we take
#: ``psi(alpha) = alpha`` (the bound needs ``psi(alpha) + eps > 2``, the
#: theorem's ``alpha > 2``) and ``eps = 0.01``.
APPROXIMATION_EXPONENT = 3.0 + 0.01


def approximation_bound(n: int) -> float:
    """Theorem 4's approximation-factor bound for FDD,
    ``n^{1 - 2/(psi(alpha) + eps)} * (log n)^{2/(psi(alpha) + eps)}`` with
    ``psi(alpha) + eps`` = :data:`APPROXIMATION_EXPONENT`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    frac = 2.0 / APPROXIMATION_EXPONENT
    return float(n ** (1.0 - frac) * np.log(n) ** frac)


def fdd_step_complexity_bound(
    total_demand: int, interference_diameter: float, n: int
) -> float:
    """Theorem 5's step-count bound: ``TD * ID(G) * n * log n``.

    Returned without a hidden constant; the complexity-validation experiment
    fits the constant and checks it stays bounded along an ``n`` sweep.
    """
    if total_demand < 0:
        raise ValueError("total_demand must be non-negative")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    check_positive("interference_diameter", interference_diameter)
    return float(total_demand * interference_diameter * n * np.log(n))
