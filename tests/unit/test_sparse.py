"""Unit tests for the sparse near-field power stack (repro.phy.sparse).

The contract under test: a :class:`SparsePowerMatrix` is *readable exactly
like* the dense received-power matrix for every access pattern the SINR and
feasibility kernels use, stores precisely the pairs within the cutoff (plus
the diagonal), and at ``cutoff=inf`` is value-identical to the dense builder.
The CSR communication graph and forest builders must reproduce their dense
twins.
"""

import numpy as np
import pytest

from repro.phy.gain import distance_matrix, received_power_matrix
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.phy.sparse import (
    SparsePowerMatrix,
    build_sparse_power,
    far_field_floor_mw,
    interference_radius_m,
    sparse_gain_model,
)
from repro.phy.spatial import GridIndex
from repro.routing import build_routing_forest, planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.topology.commgraph import (
    communication_adjacency,
    communication_csr,
    csr_neighbors_of,
    is_connected_csr,
)
from repro.topology.network import grid_network
from repro.util.rng import spawn

RADIO = RadioConfig()
MODEL = LogDistancePathLoss(alpha=RADIO.alpha)


@pytest.fixture(scope="module")
def deployment():
    rng = np.random.default_rng(42)
    positions = rng.uniform(0, 260.0, size=(40, 2))
    tx = rng.uniform(5.0, 25.0, size=40)
    return positions, tx


@pytest.fixture(scope="module")
def cutoff(deployment):
    positions, tx = deployment
    return interference_radius_m(tx, MODEL, RADIO)


@pytest.fixture(scope="module")
def sparse_and_dense(deployment, cutoff):
    positions, tx = deployment
    sparse = build_sparse_power(positions, tx, MODEL, cutoff)
    dense = received_power_matrix(positions, tx, MODEL)
    return sparse, dense


class TestSparsePowerMatrix:
    def test_stores_exactly_the_near_field_plus_diagonal(
        self, deployment, cutoff, sparse_and_dense
    ):
        positions, _ = deployment
        sparse, dense = sparse_and_dense
        near = distance_matrix(positions) <= cutoff
        np.fill_diagonal(near, True)
        expected = np.where(near, dense, 0.0)
        np.testing.assert_array_equal(sparse.toarray(), expected)
        assert sparse.nnz == int(near.sum())
        assert not sparse.value_dense

    def test_every_kernel_access_pattern_matches_dense(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        ref = sparse.toarray()
        rng = np.random.default_rng(3)
        rows = rng.integers(0, sparse.n, size=12)
        cols = rng.integers(0, sparse.n, size=12)
        # Scalar.
        assert sparse[int(rows[0]), int(cols[0])] == ref[rows[0], cols[0]]
        assert isinstance(sparse[int(rows[0]), int(cols[0])], float)
        # Pairwise gather.
        np.testing.assert_array_equal(sparse[rows, cols], ref[rows, cols])
        # ix_ mesh.
        np.testing.assert_array_equal(
            sparse[np.ix_(rows, cols)], ref[np.ix_(rows, cols)]
        )
        # Densified rows (carrier-sense path).
        np.testing.assert_array_equal(sparse[rows, :], ref[rows, :])
        np.testing.assert_array_equal(sparse[int(rows[0]), :], ref[rows[0], :])

    def test_column_sums_matches_dense_row_slice_sum(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        ref = sparse.toarray()
        rng = np.random.default_rng(5)
        # Repeated rows must contribute repeatedly.
        rows = rng.integers(0, sparse.n, size=9)
        rows[3] = rows[0]
        np.testing.assert_allclose(
            sparse.column_sums(rows), ref[rows, :].sum(axis=0), rtol=1e-13
        )
        assert sparse.column_sums(np.empty(0, dtype=np.intp)).sum() == 0.0

    def test_neighbors_are_the_stored_columns(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        ref = sparse.toarray()
        for node in (0, 7, sparse.n - 1):
            got = sparse.rows([node])[1]
            # Every stored power is positive here, so the row's nonzeros
            # are exactly its stored columns, ascending — diagonal included.
            np.testing.assert_array_equal(got, np.flatnonzero(ref[node]))
            assert np.all(np.diff(got) > 0)
            assert node in got  # diagonal always stored

    def test_rows_is_row_after_row_with_its_owner(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        ref = sparse.toarray()
        for nodes in ([7], [sparse.n - 1, 0, 7, 0], []):
            owner, cols, vals = sparse.rows(nodes)
            # Each row's stored entries are its positive entries, columns
            # ascending, values as the dense matrix holds them.
            each = [np.flatnonzero(ref[node]) for node in nodes]
            lens = [c.size for c in each]
            np.testing.assert_array_equal(owner, np.repeat(np.arange(len(nodes)), lens))
            np.testing.assert_array_equal(cols, np.concatenate(each + [[]]))
            np.testing.assert_array_equal(
                vals, np.concatenate([ref[node, c] for node, c in zip(nodes, each)] + [[]])
            )
            # Copies: the caller may shift the columns in place.
            cols += 1
            np.testing.assert_array_equal(sparse.rows(nodes)[1], cols - 1)

    def test_entries_lists_every_stored_triple_row_major(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        rows, cols, vals = sparse.entries()
        assert rows.size == cols.size == vals.size == sparse.nnz
        assert np.all(np.diff(rows.astype(np.int64) * sparse.n + cols) > 0)
        rebuilt = np.zeros(sparse.shape)
        rebuilt[rows, cols] = vals
        np.testing.assert_array_equal(rebuilt, sparse.toarray())

    def test_unsupported_indexing_fails_loudly(self, sparse_and_dense):
        sparse, _ = sparse_and_dense
        with pytest.raises(TypeError, match="pair indexing"):
            sparse[3]
        with pytest.raises(TypeError, match="full column slices"):
            sparse[3, 1:5]
        with pytest.raises(TypeError, match="row slices"):
            sparse[:, 3]

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparsePowerMatrix(4, np.array([3, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="out of range"):
            SparsePowerMatrix(2, np.array([5]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            SparsePowerMatrix(2, np.array([1]), np.array([-1.0]))

    def test_cutoff_inf_is_value_identical_to_dense(self, deployment):
        positions, tx = deployment
        sparse = build_sparse_power(positions, tx, MODEL, float("inf"))
        dense = received_power_matrix(positions, tx, MODEL)
        assert sparse.value_dense
        np.testing.assert_array_equal(sparse.toarray(), dense)

    def test_builder_rejects_bad_cutoff(self, deployment):
        positions, tx = deployment
        with pytest.raises(ValueError, match="cutoff_m"):
            build_sparse_power(positions, tx, MODEL, 0.0)


class TestNonFiniteInputs:
    """NaN compares False against everything, so it slips through every
    ``x <= 0`` range check and then passes every ``~(signal < threshold)``
    admission test: the phy boundary has to refuse it by name."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_sparse_power_rejects_non_finite_positions(self, deployment, bad):
        positions, tx = deployment
        broken = positions.copy()
        broken[3, 1] = bad
        for cutoff_m in (80.0, float("inf")):
            with pytest.raises(ValueError, match="positions must be finite"):
                build_sparse_power(broken, tx, MODEL, cutoff_m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_build_sparse_power_rejects_non_finite_powers(self, deployment, bad):
        positions, tx = deployment
        broken = tx.copy()
        broken[5] = bad
        for cutoff_m in (80.0, float("inf")):
            with pytest.raises(ValueError, match="tx_power_mw must be finite"):
                build_sparse_power(positions, broken, MODEL, cutoff_m)
        with pytest.raises(ValueError, match="tx_power_mw must be finite"):
            sparse_gain_model(positions, broken, MODEL, RADIO, cutoff_m=80.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_index_rejects_non_finite_positions(self, deployment, bad):
        positions, _ = deployment
        broken = positions.copy()
        broken[0, 0] = bad
        with pytest.raises(ValueError, match="positions must be finite"):
            GridIndex(broken, cell_size=50.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_received_power_matrix_rejects_non_finite_inputs(self, deployment, bad):
        positions, tx = deployment
        broken = positions.copy()
        broken[2, 0] = bad
        with pytest.raises(ValueError, match="positions must be finite"):
            received_power_matrix(broken, tx, MODEL)
        powers = tx.copy()
        powers[2] = bad
        with pytest.raises(ValueError, match="tx_power_mw must be finite"):
            received_power_matrix(positions, powers, MODEL)


class TestFarField:
    def test_cutoff_covers_the_strongest_transmitter(self, deployment):
        positions, tx = deployment
        radius = interference_radius_m(tx, MODEL, RADIO)
        # At the cutoff the strongest transmitter drops to the CS threshold;
        # just beyond it no transmitter is individually detectable.
        strongest = tx.max()
        at = strongest * float(MODEL.gain(np.array([radius]))[0])
        beyond = strongest * float(MODEL.gain(np.array([radius * 1.01]))[0])
        assert at >= RADIO.cs_threshold_mw * (1 - 1e-9)
        assert beyond < RADIO.cs_threshold_mw

    def test_cutoff_is_the_laws_own_inverse(self, deployment):
        """The radius comes from the model's ``range_for_snr`` at the
        carrier-sense SNR, so cutoff and gains follow one law: a steeper
        exponent gives a shorter cutoff."""
        positions, tx = deployment
        for alpha in (2.5, 3.0, 4.0):
            model = LogDistancePathLoss(alpha=alpha)
            radio = RadioConfig(alpha=alpha)
            assert interference_radius_m(tx, model, radio) == model.range_for_snr(
                float(tx.max()), radio.noise_mw, radio.cs_threshold_mw / radio.noise_mw
            )
        steep = interference_radius_m(tx, LogDistancePathLoss(alpha=4.0), RADIO)
        assert steep < interference_radius_m(tx, MODEL, RADIO)

    def test_floor_properties(self, deployment):
        positions, tx = deployment
        floor = far_field_floor_mw(len(tx), tx, MODEL, 160.0, alpha=RADIO.alpha)
        assert floor.shape == (len(tx),)
        assert np.all(floor > 0)
        # Farther cutoff -> smaller truncated tail.
        closer = far_field_floor_mw(len(tx), tx, MODEL, 80.0, alpha=RADIO.alpha)
        assert np.all(floor < closer)

    def test_floor_is_none_at_infinite_cutoff(self, deployment):
        positions, tx = deployment
        assert far_field_floor_mw(
            len(tx), tx, MODEL, float("inf"), alpha=RADIO.alpha
        ) is None
        sgm = sparse_gain_model(positions, tx, MODEL, RADIO, cutoff_m=float("inf"))
        assert sgm.floor_mw is None and sgm.power.value_dense

    def test_floor_requires_integrable_tail(self, deployment):
        positions, tx = deployment
        with pytest.raises(ValueError, match="alpha"):
            far_field_floor_mw(len(tx), tx, MODEL, 160.0, alpha=2.0)

    def test_gain_model_installs_floor_as_budget(self, deployment):
        positions, tx = deployment
        sgm = sparse_gain_model(positions, tx, MODEL, RADIO)
        oracle = sgm.interference_model(RADIO)
        np.testing.assert_array_equal(oracle.budget_mw, sgm.floor_mw)
        assert oracle.power is sgm.power
        none = sparse_gain_model(positions, tx, MODEL, RADIO, far_field="none")
        assert none.floor_mw is None


class TestCsrGraphAndForest:
    def test_csr_graph_matches_dense_at_infinite_cutoff(self, deployment):
        positions, tx = deployment
        sparse = build_sparse_power(positions, tx, MODEL, float("inf"))
        dense = received_power_matrix(positions, tx, MODEL)
        adj = communication_adjacency(dense, RADIO.noise_mw, RADIO.beta)
        indptr, indices = communication_csr(sparse, RADIO.noise_mw, RADIO.beta)
        for node in range(len(tx)):
            np.testing.assert_array_equal(
                csr_neighbors_of(indptr, indices, [node]),
                np.flatnonzero(adj[node]),
            )

    def test_budgeted_csr_graph_matches_budgeted_dense_predicate(self, deployment):
        """With the far-field floor, an edge needs both directions to clear
        ``beta`` against the *floored* noise at the receiving node."""
        positions, tx = deployment
        sgm = sparse_gain_model(positions, tx, MODEL, RADIO)
        indptr, indices = communication_csr(
            sgm.power, RADIO.noise_mw, RADIO.beta, budget_mw=sgm.floor_mw
        )
        p = sgm.power.toarray()
        need = RADIO.beta * (RADIO.noise_mw + sgm.floor_mw)
        fwd = p >= need[None, :]  # i -> j decodes at j's floored noise
        ok = fwd & fwd.T
        np.fill_diagonal(ok, False)
        for node in range(len(tx)):
            np.testing.assert_array_equal(
                csr_neighbors_of(indptr, indices, [node]),
                np.flatnonzero(ok[node]),
            )

    def test_csr_forest_reproduces_dense_forest(self):
        """Same graph, same seed => identical forest (RNG-stream identity)."""
        network = grid_network(8, 8, density_per_km2=1000.0)
        gateways = planned_gateways(8, 8, 4)
        adj = network.comm_adj
        sparse = build_sparse_power(
            network.positions, network.tx_power_mw, network.propagation, float("inf")
        )
        indptr, indices = communication_csr(sparse, RADIO.noise_mw, RADIO.beta)
        assert is_connected_csr(indptr, indices)
        dense_forest = build_routing_forest(adj, gateways, rng=spawn(9, "csr-f"))
        csr_forest = build_routing_forest_csr(
            indptr, indices, gateways, rng=spawn(9, "csr-f")
        )
        np.testing.assert_array_equal(csr_forest.parent, dense_forest.parent)
        np.testing.assert_array_equal(csr_forest.depth, dense_forest.depth)
