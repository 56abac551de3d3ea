"""The vectorised sparse set-up path ≡ brute force (≡ the loop it replaced).

``GridIndex.near_pairs`` (one half-plane pass over the cell-sorted nodes),
``build_sparse_power`` (one gain per unordered pair, one key sort) and
``build_routing_forest_csr`` (one ``generator.integers`` draw) are host-speed
rewrites.  Harvested pairs, stored keys, values, row pointers and columns
must equal what the dense O(n²) distance and power matrices give; forest
parents, depths and the random generator's state afterwards must equal the
loop reference in ``tests/conftest.py`` and the dense builder.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import spatial
from repro.phy.gain import distance_matrix, received_power_matrix
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import build_sparse_power, interference_radius_m
from repro.phy.spatial import GridIndex
from repro.routing.forest import build_routing_forest, build_routing_forest_csr
from repro.util.ranges import expand_ranges
from tests.conftest import loop_routing_forest_csr


@st.composite
def near_field_case(draw):
    """Deployment, powers, path law, cutoff regime and an index cell size.

    Negative coordinates, optional exact co-location, heterogeneous
    powers, ``alpha`` in (2, 5]; the cutoff is below one index cell, the
    carrier-sense radius, several cells, or infinite — and the index cell
    never equals the cutoff.  ``gather`` shrinks the harvest's chunk so
    that chunk boundaries fall inside and between partner runs.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    span = draw(st.floats(min_value=10.0, max_value=500.0))
    positions = rng.uniform(-span, span, size=(n, 2))
    if n >= 2 and draw(st.booleans()):
        positions[1] = positions[0]
    tx = rng.uniform(1.0, 100.0, size=n)
    alpha = draw(st.floats(min_value=2.05, max_value=5.0))
    model = LogDistancePathLoss(alpha=alpha)
    regime = draw(st.sampled_from(["sub-cell", "cs-radius", "several-cells", "inf"]))
    if regime == "cs-radius":
        cutoff = interference_radius_m(tx, model, RadioConfig(alpha=alpha))
        cell = cutoff * draw(st.floats(min_value=0.3, max_value=3.0))
    else:
        cell = draw(st.floats(min_value=5.0, max_value=300.0))
        factor = {
            "sub-cell": st.floats(min_value=0.1, max_value=0.9),
            "several-cells": st.floats(min_value=1.5, max_value=6.0),
            "inf": st.just(np.inf),
        }[regime]
        cutoff = cell * draw(factor)
    gather = draw(st.sampled_from([None, 8, 24, 80]))
    return positions, tx, model, cutoff, cell, gather


def shrunk_chunks(gather):
    """Run the harvest with ``gather // 8`` candidates per chunk."""
    return mock.patch.object(
        spatial, "GATHER_ELEMENTS", gather or spatial.GATHER_ELEMENTS
    )


@given(near_field_case())
@settings(max_examples=150, deadline=None)
def test_sparse_power_equals_brute_force(case):
    positions, tx, model, cutoff, cell, gather = case
    n = len(positions)
    with shrunk_chunks(gather):
        got = build_sparse_power(
            positions, tx, model, cutoff, index=GridIndex(positions, cell_size=cell)
        )
    # Brute force: exactly the pairs of the dense distance matrix, plus the
    # diagonal, carrying exactly the dense received powers — and the CSR
    # rows are the row nonzeros of the densified matrix.
    stored = (distance_matrix(positions) <= cutoff) | np.eye(n, dtype=bool)
    assert np.array_equal(got._keys, np.flatnonzero(stored.ravel()))
    dense = received_power_matrix(positions, tx, model)
    assert np.array_equal(got._vals, dense[stored])
    rows, cols = np.nonzero(got.toarray())
    assert np.array_equal(got.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(got._cols, cols)


@pytest.mark.parametrize("cell", [2.0, 5.0, 7.5, 40.0])
def test_pairs_at_exactly_the_cutoff_are_stored(cell):
    """Inclusive boundary: on an integer lattice a cutoff of 5 m meets the
    (5, 0) and (3, 4) neighbours exactly, where ``d² <= r²`` is exact."""
    side = np.arange(-6.0, 6.0)
    positions = np.array([(x, y) for x in side for y in side])
    tx = np.linspace(1.0, 2.0, len(positions))
    model = LogDistancePathLoss(alpha=3.0)
    got = build_sparse_power(
        positions, tx, model, 5.0, index=GridIndex(positions, cell_size=cell)
    )
    dist = distance_matrix(positions)
    assert np.any(dist == 5.0)
    stored = dist <= 5.0
    assert np.array_equal(got._keys, np.flatnonzero(stored.ravel()))
    assert np.array_equal(got._vals, received_power_matrix(positions, tx, model)[stored])


@given(near_field_case())
@settings(max_examples=100, deadline=None)
def test_harvest_lists_each_unordered_pair_once_with_its_distance(case):
    positions, _, _, cutoff, cell, gather = case
    if np.isinf(cutoff):
        cutoff = 4.0 * cell
    index = GridIndex(positions, cell_size=cell)
    with shrunk_chunks(gather):
        chunks = list(index.near_pairs(cutoff))
    assert chunks, "the harvest always yields at least one chunk"
    i, j, d2 = (np.concatenate(part) for part in zip(*chunks))
    assert not np.any(i == j)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    n = len(positions)
    assert np.unique(lo * n + hi).size == i.size  # never (i, j) and (j, i)
    delta = positions[i] - positions[j]
    assert np.array_equal(d2, delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
    assert np.all(d2 <= cutoff * cutoff)

    # Brute force: the upper triangle of the dense distance test.
    near = np.triu(distance_matrix(positions) <= cutoff, k=1)
    assert np.array_equal(np.sort(lo * n + hi), np.flatnonzero(near.ravel()))


@st.composite
def forest_case(draw):
    """A random geometric graph in CSR and dense form, with enough
    gateways that every node reaches one (one per component, plus extras);
    sparse radii leave chains of single-candidate nodes."""
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    positions = rng.uniform(0.0, 100.0, size=(n, 2))
    reach = draw(st.floats(min_value=8.0, max_value=60.0))
    adj = distance_matrix(positions) <= reach
    np.fill_diagonal(adj, False)
    label = np.full(n, -1)
    for v in range(n):
        if label[v] < 0:
            stack = [v]
            label[v] = v
            while stack:
                for w in np.flatnonzero(adj[stack.pop()] & (label < 0)):
                    label[w] = v
                    stack.append(int(w))
    gateways = set(np.unique(label).tolist())
    gateways |= set(rng.choice(n, size=draw(st.integers(0, min(3, n))), replace=False).tolist())
    gateways = rng.permutation(np.asarray(sorted(gateways), dtype=np.intp))
    rows, cols = np.nonzero(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return adj, indptr, cols.astype(np.intp), gateways, seed


@given(forest_case())
@settings(max_examples=150, deadline=None)
def test_csr_forest_equals_loop_reference_and_dense_builder(case):
    adj, indptr, indices, gateways, seed = case
    streams = [np.random.default_rng(seed) for _ in range(3)]
    got = build_routing_forest_csr(indptr, indices, gateways, rng=streams[0])
    ref = loop_routing_forest_csr(indptr, indices, gateways, streams[1])
    dense = build_routing_forest(adj, gateways, rng=streams[2])
    for other in (ref, dense):
        assert np.array_equal(got.parent, other.parent)
        assert np.array_equal(got.depth, other.depth)
        assert np.array_equal(got.gateways, other.gateways)
    # The draws left every generator in the same state: whatever is drawn
    # next from the stream is unchanged by the rewrite.
    states = [s.bit_generator.state for s in streams]
    assert states[0] == states[1] == states[2]
    got.validate(adj)


def test_csr_forest_rejects_unreachable_nodes_like_the_dense_builder():
    # Two components, one gateway: nodes 2 and 3 are cut off.
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
    indptr = np.array([0, 1, 2, 3, 4])
    indices = np.array([1, 0, 3, 2])
    with pytest.raises(ValueError, match=r"\[2, 3\] cannot reach"):
        build_routing_forest_csr(indptr, indices, np.array([0]), rng=1)
    with pytest.raises(ValueError, match=r"\[2, 3\] cannot reach"):
        build_routing_forest(adj, np.array([0]), rng=1)


def test_expand_ranges_concatenates_and_rejects_reversed_ranges():
    owner, flat = expand_ranges(np.array([5, 2, 9, 0]), np.array([8, 2, 10, 2]))
    assert flat.tolist() == [5, 6, 7, 9, 0, 1]
    assert owner.tolist() == [0, 0, 0, 2, 3, 3]
    owner, flat = expand_ranges(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    assert owner.size == flat.size == 0
    with pytest.raises(ValueError):
        expand_ranges(np.array([3]), np.array([2]))
