"""Lattice geometry (Definitions 7-11) and Theorem 2's hop-length identity."""

import numpy as np
import pytest

from repro.topology.lattice import (
    LatticeCell,
    grid_interior,
    is_square_grid_convex,
    lattice_path_hop_length,
    lattice_paths,
    segment_augmentation,
)


class TestAugmentation:
    def test_axis_aligned_segment(self):
        cells = segment_augmentation(np.array([0.5, 0.5]), np.array([3.5, 0.5]))
        assert cells == [LatticeCell(0, 0), LatticeCell(1, 0), LatticeCell(2, 0), LatticeCell(3, 0)]

    def test_diagonal_segment(self):
        cells = segment_augmentation(np.array([0.25, 0.1]), np.array([1.75, 1.9]))
        assert LatticeCell(0, 0) in cells
        assert LatticeCell(1, 1) in cells
        # The walk is 4-connected: consecutive cells differ by one unit.
        for a, b in zip(cells, cells[1:]):
            assert abs(a.i - b.i) + abs(a.j - b.j) == 1

    def test_degenerate_point(self):
        cells = segment_augmentation(np.array([1.3, 2.7]), np.array([1.3, 2.7]))
        assert cells == [LatticeCell(1, 2)]

    def test_respects_step(self):
        coarse = segment_augmentation(
            np.array([0.0, 0.0]), np.array([10.0, 0.5]), step=10.0
        )
        assert len(coarse) == 1 or len(coarse) == 2


class TestLatticePaths:
    def test_paths_connect_endpoints_with_unit_hops(self):
        p, q = np.array([0.0, 0.0]), np.array([4.0, 3.0])
        upper, lower = lattice_paths(p, q)
        for path in (upper, lower):
            assert path[0] == (0, 0)
            assert path[-1] == (4, 3)
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_upper_path_weakly_above_lower(self):
        p, q = np.array([0.0, 0.0]), np.array([5.0, 2.0])
        upper, lower = lattice_paths(p, q)
        upper_max = {}
        for x, y in upper:
            upper_max[x] = max(upper_max.get(x, y), y)
        lower_min = {}
        for x, y in lower:
            lower_min[x] = min(lower_min.get(x, y), y)
        for x in upper_max:
            if x in lower_min:
                assert upper_max[x] >= lower_min[x]

    def test_paths_stay_within_one_unit_of_segment(self):
        """Both staircases hug the segment (stay inside its augmentation)."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = rng.integers(-4, 5, size=2).astype(float)
            q = rng.integers(-4, 5, size=2).astype(float)
            length = float(np.hypot(*(q - p)))
            if length == 0:
                continue
            direction = (q - p) / length
            for path in lattice_paths(p, q):
                for point in np.asarray(path, dtype=float):
                    t = float(np.dot(point - p, direction))
                    t = min(max(t, 0.0), length)
                    closest = p + t * direction
                    assert np.hypot(*(point - closest)) < np.sqrt(2) + 1e-9

    def test_hop_length_identity(self):
        """Theorem 2: hop length = (l/s)(sin b + cos b) = |dx| + |dy|."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.integers(-5, 5, size=2).astype(float)
            q = rng.integers(-5, 5, size=2).astype(float)
            length = np.hypot(*(q - p))
            if length == 0:
                continue
            beta = np.arctan2(abs(q[1] - p[1]), abs(q[0] - p[0]))
            expected = length * (np.sin(beta) + np.cos(beta))
            hops = lattice_path_hop_length(p, q)
            assert hops == pytest.approx(expected, abs=1e-9)
            upper, lower = lattice_paths(p, q)
            assert len(upper) - 1 == hops
            assert len(lower) - 1 == hops

    def test_hop_length_at_most_sqrt2_over_step_times_length(self):
        """The sin+cos <= sqrt(2) step of Theorem 2's proof."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.integers(0, 8, size=2).astype(float)
            q = rng.integers(0, 8, size=2).astype(float)
            length = np.hypot(*(q - p))
            assert lattice_path_hop_length(p, q) <= np.sqrt(2) * length + 1e-9

    def test_non_lattice_endpoints_rejected(self):
        with pytest.raises(ValueError):
            lattice_paths(np.array([0.5, 0.0]), np.array([2.0, 1.0]))

    def test_vertical_segment_convention(self):
        upper, lower = lattice_paths(np.array([2.0, 0.0]), np.array([2.0, 3.0]))
        # Both are the same straight column walk here (no detour possible).
        assert upper == lower


class TestConvexity:
    @staticmethod
    def _points(side):
        xs, ys = np.meshgrid(np.arange(side + 1), np.arange(side + 1))
        return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)

    def test_square_region_is_grid_convex(self):
        side = 5
        mask = lambda pts: (
            (pts[:, 0] >= 0) & (pts[:, 0] <= side)
            & (pts[:, 1] >= 0) & (pts[:, 1] <= side)
        )
        assert is_square_grid_convex(mask, self._points(side))

    def test_disk_region_is_grid_convex(self):
        side = 8
        center = np.array([4.0, 4.0])
        mask = lambda pts: np.hypot(*(pts - center).T) <= 4.2
        assert is_square_grid_convex(mask, self._points(side))

    def test_u_shape_is_not_grid_convex(self):
        # A U: two towers connected only at the bottom row; the staircases
        # between tower tops must cross the excluded middle.
        side = 6
        def mask(pts):
            x, y = pts[:, 0], pts[:, 1]
            in_box = (x >= 0) & (x <= side) & (y >= 0) & (y <= side)
            notch = (x > 1.5) & (x < 4.5) & (y > 1.5)
            return in_box & ~notch

        assert not is_square_grid_convex(mask, self._points(side))

    def test_interior_extraction(self):
        mask = lambda pts: pts[:, 0] <= 1.0
        interior = grid_interior(mask, self._points(3))
        assert (interior[:, 0] <= 1.0).all()
        assert interior.shape[0] == 8

    def test_sampled_check_requires_rng(self):
        mask = lambda pts: np.ones(len(pts), dtype=bool)
        with pytest.raises(ValueError):
            is_square_grid_convex(mask, self._points(4), sample_pairs=3)
