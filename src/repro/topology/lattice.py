"""Square-grid lattice geometry (Definitions 7-11 and Theorem 2's machinery).

The paper's grid-diameter bound rests on a small geometric toolkit:

* **square grid augmentation** (Def. 7) — the set of lattice cells a line
  segment traverses;
* **upper/lower lattice paths** (Def. 8) — the staircase walks along the
  augmentation's lattice points above/below the segment;
* **square grid interior / convexity** (Defs. 9-10) — regions whose interior
  lattice points are always connected by one of those staircases;
* the **hop-length identity** used in Theorem 2's proof: both staircases of
  a segment of length ``l`` at angle ``β`` have hop length
  ``(l/s)(sin β + cos β)`` on a lattice of step ``s`` (up to the integer
  truncation of endpoints).

These are implemented exactly so the bound's proof steps can be validated
numerically (see ``tests/unit/test_lattice.py`` and the T1 experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

_EPS = 1e-9


@dataclass(frozen=True)
class LatticeCell:
    """One unit cell of the lattice: ``[i*s, (i+1)*s] x [j*s, (j+1)*s]``."""

    i: int
    j: int


def segment_augmentation(
    p: np.ndarray, q: np.ndarray, step: float = 1.0
) -> list[LatticeCell]:
    """Square grid augmentation of segment ``pq`` (Definition 7).

    Returns the lattice cells traversed by the segment, in traversal order
    from ``p`` to ``q`` (a supercover walk: cells whose closed interior the
    segment intersects in more than a point).
    """
    check_positive("step", step)
    p = np.asarray(p, dtype=float) / step
    q = np.asarray(q, dtype=float) / step
    if p.shape != (2,) or q.shape != (2,):
        raise ValueError("segment endpoints must be 2-vectors")

    # Amanatides-Woo style grid traversal in lattice units.
    direction = q - p
    length = float(np.hypot(*direction))
    if length < _EPS:
        return [LatticeCell(int(np.floor(p[0])), int(np.floor(p[1])))]

    cells: list[LatticeCell] = []
    t = 0.0
    cur = np.floor(p + _EPS * np.sign(direction)).astype(int)
    # Handle exact-start-on-gridline: bias the starting cell toward travel.
    for axis in range(2):
        if abs(p[axis] - round(p[axis])) < _EPS and direction[axis] < 0:
            cur[axis] = int(round(p[axis])) - 1
        elif abs(p[axis] - round(p[axis])) < _EPS:
            cur[axis] = int(round(p[axis]))
    end_cell = np.floor(q - _EPS * np.sign(direction)).astype(int)
    for axis in range(2):
        if abs(q[axis] - round(q[axis])) < _EPS and direction[axis] > 0:
            end_cell[axis] = int(round(q[axis])) - 1
        elif abs(q[axis] - round(q[axis])) < _EPS:
            end_cell[axis] = int(round(q[axis])) - (1 if direction[axis] > 0 else 0)

    step_sign = np.sign(direction).astype(int)
    with np.errstate(divide="ignore"):
        t_delta = np.where(direction != 0, 1.0 / np.abs(direction), np.inf)
        next_boundary = np.where(
            step_sign > 0, cur + 1.0, cur.astype(float)
        )
        t_max = np.where(
            direction != 0,
            (next_boundary - p) / direction,
            np.inf,
        )

    cells.append(LatticeCell(int(cur[0]), int(cur[1])))
    guard = 0
    while not np.array_equal(cur, end_cell):
        guard += 1
        if guard > 10_000_000:
            raise RuntimeError("lattice traversal failed to terminate")
        axis = 0 if t_max[0] <= t_max[1] else 1
        cur[axis] += step_sign[axis]
        t_max[axis] += t_delta[axis]
        cells.append(LatticeCell(int(cur[0]), int(cur[1])))
    return cells


def lattice_paths(
    p: np.ndarray, q: np.ndarray, step: float = 1.0
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Upper and lower lattice paths of segment ``pq`` (Definition 8).

    Both endpoints must be lattice points.  Returns two walks over lattice
    points (in lattice units), each a sequence of unit horizontal/vertical
    hops from ``p``'s lattice point to ``q``'s: the *upper* path through the
    augmentation's points on/above the segment, the *lower* path through
    those on/below.  For a segment parallel to the y axis the paper defines
    upper = left, lower = right.
    """
    check_positive("step", step)
    p = np.asarray(p, dtype=float) / step
    q = np.asarray(q, dtype=float) / step
    for point in (p, q):
        if np.abs(point - np.round(point)).max() > _EPS:
            raise ValueError("lattice paths require lattice-point endpoints")
    p_i = np.round(p).astype(int)
    q_i = np.round(q).astype(int)

    dx = int(q_i[0] - p_i[0])
    dy = int(q_i[1] - p_i[1])
    # Reflect into the first quadrant (dx, dy >= 0); reflections are undone
    # when emitting points, and the upper/lower classification is done on
    # the original coordinates.
    rx = 1 if dx >= 0 else -1
    ry = 1 if dy >= 0 else -1
    adx, ady = abs(dx), abs(dy)

    def emit(x: int, y: int) -> tuple[int, int]:
        return (int(p_i[0] + rx * x), int(p_i[1] + ry * y))

    def cross(x: int, y: int) -> int:
        """Sign of the candidate's side in the reflected frame.

        Signed area of (q' - p') x (candidate - p') with p' = origin and
        q' = (adx, ady): positive = above the reflected segment.
        """
        return adx * y - ady * x

    def staircase(hug_above: bool) -> list[tuple[int, int]]:
        """The tight monotone staircase on one side of the segment.

        Above: climb as early as possible, move right only while the next
        point stays on/above the line.  Below: symmetric.  Both walks stay
        within one unit of the segment (so within its augmentation) and use
        exactly |dx| + |dy| unit hops.
        """
        path = [emit(0, 0)]
        x = y = 0
        while x < adx or y < ady:
            if hug_above:
                if x < adx and cross(x + 1, y) >= 0:
                    x += 1
                elif y < ady:
                    y += 1
                else:
                    x += 1
            else:
                if y < ady and cross(x, y + 1) <= 0:
                    y += 1
                elif x < adx:
                    x += 1
                else:
                    y += 1
            path.append(emit(x, y))
        return path

    first = staircase(True)
    second = staircase(False)

    def side_score(path: list[tuple[int, int]]) -> float:
        """Sum of (q-p) x (point-p): positive = left of the segment."""
        return sum((px - p[0]) * -dy + (py - p[1]) * dx for px, py in path)

    # Larger cross-product sum = more to the left of p->q = "upper" for
    # left-to-right segments; the paper's vertical-segment convention
    # (upper = left of the segment) coincides with the same sign test.
    if side_score(first) >= side_score(second):
        return first, second
    return second, first


def lattice_path_hop_length(p: np.ndarray, q: np.ndarray, step: float = 1.0) -> int:
    """Hop length of either lattice path (they are equal): the Manhattan
    distance in lattice units — Theorem 2's ``(l/s)(sin β + cos β)``."""
    check_positive("step", step)
    p = np.asarray(p, dtype=float) / step
    q = np.asarray(q, dtype=float) / step
    return int(round(abs(q[0] - p[0]) + abs(q[1] - p[1])))


def grid_interior(region_mask, lattice_points: np.ndarray) -> np.ndarray:
    """Square grid interior (Definition 9): lattice points inside a region.

    ``region_mask`` is a callable mapping an ``(m, 2)`` array of points to a
    boolean mask.
    """
    points = np.asarray(lattice_points, dtype=float)
    return points[np.asarray(region_mask(points), dtype=bool)]


def is_square_grid_convex(
    region_mask,
    lattice_points: np.ndarray,
    step: float = 1.0,
    sample_pairs: int | None = None,
    rng: np.random.Generator | None = None,
) -> bool:
    """Square grid convexity check (Definition 10).

    For every pair of interior lattice points (or a random sample of pairs),
    verify that at least one of the two lattice paths stays inside the
    region.  Exact for small point sets; sampling keeps large checks cheap.
    """
    interior = grid_interior(region_mask, lattice_points)
    m = interior.shape[0]
    if m < 2:
        return True
    pairs: list[tuple[int, int]] = [
        (a, b) for a in range(m) for b in range(a + 1, m)
    ]
    if sample_pairs is not None and sample_pairs < len(pairs):
        if rng is None:
            raise ValueError("rng required when sampling pairs")
        chosen = rng.choice(len(pairs), size=sample_pairs, replace=False)
        pairs = [pairs[i] for i in chosen]
    for a, b in pairs:
        upper, lower = lattice_paths(interior[a], interior[b], step)
        for path in (upper, lower):
            pts = np.asarray(path, dtype=float) * step
            if np.asarray(region_mask(pts), dtype=bool).all():
                break
        else:
            return False
    return True
