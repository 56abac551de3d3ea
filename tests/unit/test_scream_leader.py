"""The SCREAM primitive and leader election (functional forms)."""

import numpy as np
import pytest

from repro.core.leader import leader_elect
from repro.core.scream import scream_flood
from repro.topology.diameter import hop_distance_matrix
from tests.conftest import scream_exact, scream_reach_exactly


def path_sensitivity(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


class TestScreamExact:
    def test_or_semantics(self):
        assert scream_exact(np.array([False, True, False])).all()
        assert not scream_exact(np.array([False, False])).any()


class TestScreamFlood:
    def test_full_propagation_with_sufficient_k(self):
        adj = path_sensitivity(6)
        inputs = np.array([True, False, False, False, False, False])
        out = scream_flood(adj, inputs, k=5)
        assert out.all()

    def test_truncated_propagation(self):
        adj = path_sensitivity(6)
        inputs = np.array([True] + [False] * 5)
        out = scream_flood(adj, inputs, k=2)
        assert out.tolist() == [True, True, True, False, False, False]

    def test_no_sources_stays_silent(self):
        adj = path_sensitivity(4)
        assert not scream_flood(adj, np.zeros(4, dtype=bool), k=10).any()

    def test_k_zero_returns_inputs(self):
        adj = path_sensitivity(4)
        inputs = np.array([False, True, False, False])
        assert np.array_equal(scream_flood(adj, inputs, k=0), inputs)

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            adj = rng.random((n, n)) < 0.3
            np.fill_diagonal(adj, False)
            inputs = rng.random(n) < 0.3
            k = int(rng.integers(0, n + 2))
            dist = hop_distance_matrix(adj)
            assert np.array_equal(
                scream_flood(adj, inputs, k),
                scream_reach_exactly(dist, inputs, k),
            )

    def test_miss_prob_one_blocks_propagation(self):
        adj = path_sensitivity(5)
        inputs = np.array([True, False, False, False, False])
        out = scream_flood(
            adj, inputs, k=10, rng=np.random.default_rng(0), miss_prob=1.0
        )
        assert out.tolist() == [True, False, False, False, False]

    def test_miss_prob_requires_rng(self):
        adj = path_sensitivity(3)
        with pytest.raises(ValueError, match="rng"):
            scream_flood(adj, np.zeros(3, dtype=bool), k=1, miss_prob=0.5)

    def test_negative_k_rejected(self):
        adj = path_sensitivity(3)
        with pytest.raises(ValueError):
            scream_flood(adj, np.zeros(3, dtype=bool), k=-1)


class TestLeaderElect:
    def _exact_scream(self, inputs):
        return scream_exact(inputs)

    def test_max_id_wins(self):
        ids = np.array([3, 7, 1, 5])
        part = np.ones(4, dtype=bool)
        winners = leader_elect(ids, part, id_bits=4, scream=self._exact_scream)
        assert winners.tolist() == [False, True, False, False]

    def test_passive_nodes_cannot_win(self):
        ids = np.array([3, 7, 1, 5])
        part = np.array([True, False, True, False])
        winners = leader_elect(ids, part, id_bits=4, scream=self._exact_scream)
        assert winners.tolist() == [True, False, False, False]

    def test_no_participants_no_winner(self):
        ids = np.array([1, 2])
        winners = leader_elect(
            ids, np.zeros(2, dtype=bool), id_bits=2, scream=self._exact_scream
        )
        assert not winners.any()

    def test_id_zero_can_win_alone(self):
        ids = np.array([0, 5])
        part = np.array([True, False])
        winners = leader_elect(ids, part, id_bits=3, scream=self._exact_scream)
        assert winners.tolist() == [True, False]

    def test_insufficient_id_bits_rejected(self):
        ids = np.array([9])
        with pytest.raises(ValueError, match="id_bits"):
            leader_elect(ids, np.array([True]), id_bits=3, scream=self._exact_scream)

    def test_truncated_scream_can_elect_multiple_leaders(self):
        """With K below the diameter, disjoint regions elect separately."""
        adj = path_sensitivity(8)
        ids = np.arange(8)
        part = np.ones(8, dtype=bool)

        def truncated(inputs):
            return scream_flood(adj, inputs, k=1)

        winners = leader_elect(ids, part, id_bits=3, scream=truncated)
        assert winners.sum() >= 2
        assert winners[7]  # the true maximum always survives
