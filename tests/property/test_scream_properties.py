"""Property tests: SCREAM flood semantics and leader election."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.leader import leader_elect
from repro.core.scream import scream_flood
from repro.topology.diameter import hop_distance_matrix, interference_diameter
from tests.conftest import scream_exact, scream_reach_exactly


@st.composite
def random_digraph_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < draw(st.floats(min_value=0.05, max_value=0.6))
    np.fill_diagonal(adj, False)
    inputs = rng.random(n) < 0.4
    k = draw(st.integers(min_value=0, max_value=n + 2))
    return adj, inputs, k


@given(random_digraph_inputs())
@settings(max_examples=80, deadline=None)
def test_flood_equals_reachability_oracle(case):
    adj, inputs, k = case
    dist = hop_distance_matrix(adj)
    assert np.array_equal(
        scream_flood(adj, inputs, k), scream_reach_exactly(dist, inputs, k)
    )


@given(random_digraph_inputs())
@settings(max_examples=80, deadline=None)
def test_hop_distances_equal_scipy_shortest_path(case):
    """The numpy frontier BFS returns scipy's matrix bit for bit."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    adj, _, _ = case
    expected = shortest_path(
        csr_matrix(adj.astype(np.int8)), method="D", directed=True, unweighted=True
    )
    dist = hop_distance_matrix(adj)
    assert dist.dtype == expected.dtype
    assert dist.tobytes() == expected.tobytes()


@given(random_digraph_inputs())
@settings(max_examples=80, deadline=None)
def test_flood_monotone_in_k(case):
    adj, inputs, k = case
    small = scream_flood(adj, inputs, k)
    large = scream_flood(adj, inputs, k + 1)
    assert (small <= large).all()


@given(random_digraph_inputs())
@settings(max_examples=80, deadline=None)
def test_flood_equals_or_when_k_covers_diameter(case):
    adj, inputs, _ = case
    diameter = interference_diameter(adj)
    if not np.isfinite(diameter):
        return
    out = scream_flood(adj, inputs, int(diameter))
    assert np.array_equal(out, scream_exact(inputs))


@given(random_digraph_inputs())
@settings(max_examples=80, deadline=None)
def test_flood_monotone_in_inputs(case):
    """More initial screamers can only produce more hearers."""
    adj, inputs, k = case
    fewer = inputs.copy()
    true_idx = np.flatnonzero(fewer)
    if true_idx.size:
        fewer[true_idx[0]] = False
    assert (scream_flood(adj, fewer, k) <= scream_flood(adj, inputs, k)).all()


@st.composite
def election_case(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ids = rng.permutation(2**6)[:n].astype(np.int64)
    participating = rng.random(n) < draw(st.floats(min_value=0.0, max_value=1.0))
    return ids, participating


@given(election_case())
@settings(max_examples=100, deadline=None)
def test_exact_election_returns_argmax(case):
    ids, participating = case
    winners = leader_elect(ids, participating, id_bits=6, scream=scream_exact)
    if not participating.any():
        assert not winners.any()
    else:
        expected = np.zeros_like(participating)
        candidates = np.flatnonzero(participating)
        expected[candidates[np.argmax(ids[candidates])]] = True
        assert np.array_equal(winners, expected)


@given(election_case())
@settings(max_examples=60, deadline=None)
def test_election_winner_always_participates(case):
    ids, participating = case
    winners = leader_elect(ids, participating, id_bits=6, scream=scream_exact)
    assert not (winners & ~participating).any()
