"""Property tests pinning the GridIndex against brute-force geometry.

The pair join the sparse interference stack asks of
:class:`repro.phy.spatial.GridIndex` is checked here against the O(n²)
answer computed from :func:`repro.phy.gain.distance_matrix`, over random
deployments *and* random cell sizes — the index must be a pure accelerator,
its answers a function of the deployment alone.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.gain import distance_matrix
from repro.phy.spatial import GridIndex


@st.composite
def deployment(draw):
    """Random planar deployment + query radius + cell size.

    Coordinates may be negative (cells must floor correctly left of the
    origin) and may contain exact duplicates (zero-distance pairs).
    """
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    span = draw(st.floats(min_value=10.0, max_value=500.0))
    positions = rng.uniform(-span, span, size=(n, 2))
    if n >= 2 and draw(st.booleans()):
        positions[1] = positions[0]  # exact co-location
    radius = draw(st.floats(min_value=1.0, max_value=400.0))
    cell = draw(st.floats(min_value=2.0, max_value=300.0))
    return positions, radius, cell


def _pair_keys(index, radius, n):
    """``lo * n + hi`` for every pair :meth:`GridIndex.near_pairs` yields,
    sorted: a canonical form of its unordered pairs."""
    i, j, _ = (np.concatenate(part) for part in zip(*index.near_pairs(radius)))
    return np.sort(np.minimum(i, j) * n + np.maximum(i, j))


@given(deployment())
@settings(max_examples=80, deadline=None)
def test_near_pairs_match_brute_force(case):
    """Every pair within the radius, once, never a self-pair."""
    positions, radius, cell = case
    n = len(positions)
    index = GridIndex(positions, cell_size=cell)
    lo, hi = np.nonzero(np.triu(distance_matrix(positions) <= radius, k=1))
    assert np.array_equal(_pair_keys(index, radius, n), lo * n + hi)


@given(deployment())
@settings(max_examples=60, deadline=None)
def test_answers_invariant_under_cell_size(case):
    """Cell size is a tuning knob, never a semantic one."""
    positions, radius, cell = case
    n = len(positions)
    coarse = GridIndex(positions, cell_size=cell)
    fine = GridIndex(positions, cell_size=max(cell / 7.3, 0.5))
    assert np.array_equal(
        _pair_keys(coarse, radius, n), _pair_keys(fine, radius, n)
    )
